import io

import numpy as np
import pytest

from tromkit import store, tensors


def canon(entries, shape):
    return np.reshape(np.asarray(entries, dtype=float), shape, order="F")


class TestUnfold:
    def test_matrix_is_its_own_unfolding(self):
        m = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(tensors.unfold(m, 0), m)

    def test_2x2x2_enumerated_fibers(self):
        t = canon(range(1, 9), (2, 2, 2))
        expected = np.array([[1, 3, 5, 7], [2, 4, 6, 8]], dtype=float)
        assert np.array_equal(tensors.unfold(t, 0), expected)

    def test_rank_one_tensor_unfolds_to_rank_one_matrix(self):
        u = np.array([1.0, -2.0, 0.5])
        v = np.array([3.0, 1.0])
        w = np.array([2.0, 0.0, -1.0, 4.0])
        t = np.einsum("i,j,k->ijk", u, v, w)
        assert np.linalg.matrix_rank(tensors.unfold(t, 0)) == 1

    def test_norm_preserved_by_unfolding(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            shape = rng.integers(2, 6, size=rng.integers(2, 5))
            t = rng.standard_normal(tuple(shape))
            assert np.linalg.norm(t) == pytest.approx(
                np.linalg.norm(tensors.unfold(t, 0)), rel=1e-15)

    def test_refold_inverts_any_mode(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal((3, 4, 5))
        for mode in range(3):
            mat = tensors.unfold(t, mode)
            assert np.array_equal(tensors.refold(mat, mode, t.shape), t)


class TestBinaryFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(10)
        t = rng.standard_normal((3, 5, 2))
        buf = io.BytesIO()
        store.write_tensor(buf, t)
        buf.seek(0)
        assert np.array_equal(store.read_tensor(buf), t)

    def test_layout_is_first_index_fastest(self):
        t = canon(range(1, 9), (2, 2, 2))
        buf = io.BytesIO()
        store.write_tensor(buf, t)
        raw = buf.getvalue()
        # magic(4) + version(4) + order(1) + dims(3*8) = 33-byte header
        assert raw[:4] == b"TNSR"
        payload = np.frombuffer(raw[33:], dtype="<f8")
        assert np.array_equal(payload, np.arange(1.0, 9.0))

    def test_write_is_deterministic(self):
        t = np.random.default_rng(11).standard_normal((4, 4))
        bufs = []
        for _ in range(2):
            buf = io.BytesIO()
            store.write_tensor(buf, t)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    @pytest.mark.parametrize("cut", [2, 6, 20, 33, 40])
    def test_short_read_states_byte_counts(self, cut):
        buf = io.BytesIO()
        store.write_tensor(buf, np.ones((2, 2, 2)))
        raw = buf.getvalue()[:cut]
        with pytest.raises(ValueError, match=r"truncated .*expected \d+ bytes, got \d+"):
            store.read_tensor(io.BytesIO(raw))

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            store.read_tensor(io.BytesIO(b"NOPE" + b"\x00" * 16))
