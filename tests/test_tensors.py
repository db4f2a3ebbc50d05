import io

import numpy as np
import pytest

from tromkit import tensors


def canon(entries, shape):
    return np.reshape(np.asarray(entries, dtype=float), shape, order="F")


class TestUnfold:
    def test_matrix_is_its_own_unfolding(self):
        m = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(tensors.unfold_mode1(m), m)

    def test_2x2x2_enumerated_fibers(self):
        t = canon(range(1, 9), (2, 2, 2))
        expected = np.array([[1, 3, 5, 7], [2, 4, 6, 8]], dtype=float)
        assert np.array_equal(tensors.unfold_mode1(t), expected)

    def test_rank_one_tensor_unfolds_to_rank_one_matrix(self):
        u = np.array([1.0, -2.0, 0.5])
        v = np.array([3.0, 1.0])
        w = np.array([2.0, 0.0, -1.0, 4.0])
        t = np.einsum("i,j,k->ijk", u, v, w)
        assert np.linalg.matrix_rank(tensors.unfold_mode1(t)) == 1

    def test_rejects_vectors(self):
        with pytest.raises(ValueError):
            tensors.unfold_mode1(np.ones(4))

    def test_norm_preserved_by_unfolding(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            shape = rng.integers(2, 6, size=rng.integers(2, 5))
            t = rng.standard_normal(tuple(shape))
            assert tensors.frobenius_norm(t) == pytest.approx(
                tensors.frobenius_norm(tensors.unfold_mode1(t)), rel=1e-15)

    def test_refold_inverts_any_mode(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal((3, 4, 5))
        for mode in range(3):
            mat = tensors.unfold(t, mode)
            assert np.array_equal(tensors.refold(mat, mode, t.shape), t)


class TestModeProducts:
    def test_basis_vector_extracts_slice_bitwise(self):
        rng = np.random.default_rng(2)
        t = rng.standard_normal((3, 4, 2))
        for j in range(4):
            e = np.zeros(4)
            e[j] = 1.0
            assert np.array_equal(tensors.mode_vector_product(t, 1, e), t[:, j, :])

    def test_zero_vector_gives_zero_tensor(self):
        t = np.random.default_rng(3).standard_normal((3, 4, 2))
        out = tensors.mode_vector_product(t, 1, np.zeros(4))
        assert np.array_equal(out, np.zeros((3, 2)))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(4)
        t = rng.standard_normal((3, 4, 2))
        a = rng.standard_normal(4)
        oracle = np.zeros((3, 2))
        for i in range(3):
            for j in range(4):
                for k in range(2):
                    oracle[i, k] += t[i, j, k] * a[j]
        out = tensors.mode_vector_product(t, 1, a)
        assert np.max(np.abs(out - oracle)) < 1e-14

    def test_identity_matrix_is_noop(self):
        t = np.random.default_rng(5).standard_normal((3, 4, 2))
        out = tensors.mode_matrix_product(t, 1, np.eye(4))
        assert np.allclose(out, t, rtol=0, atol=1e-15)

    def test_mode1_matrix_product_matches_unfolding_oracle(self):
        rng = np.random.default_rng(6)
        t = rng.standard_normal((3, 4, 2))
        a = rng.standard_normal((5, 3))
        out = tensors.mode_matrix_product(t, 0, a)
        oracle = tensors.refold(a @ tensors.unfold(t, 0), 0, (5, 4, 2))
        assert np.max(np.abs(out - oracle)) < 1e-14

    def test_single_row_selects_slice(self):
        t = np.random.default_rng(7).standard_normal((3, 4, 2))
        row = np.zeros((1, 4))
        row[0, 2] = 1.0
        out = tensors.mode_matrix_product(t, 1, row)
        assert np.allclose(out[:, 0, :], t[:, 2, :], rtol=0, atol=0)

    def test_products_commute_across_distinct_modes(self):
        rng = np.random.default_rng(8)
        t = rng.standard_normal((3, 4, 5))
        a = rng.standard_normal((2, 4))
        b = rng.standard_normal((6, 5))
        ab = tensors.mode_matrix_product(tensors.mode_matrix_product(t, 1, a), 2, b)
        ba = tensors.mode_matrix_product(tensors.mode_matrix_product(t, 2, b), 1, a)
        assert np.linalg.norm(ab - ba) < 1e-13 * np.linalg.norm(ab)

    def test_norm_identity_with_unfolding(self):
        # |t x_k A|_F == |A t_(k)|_F
        rng = np.random.default_rng(9)
        t = rng.standard_normal((3, 4, 5))
        a = rng.standard_normal((7, 4))
        lhs = tensors.frobenius_norm(tensors.mode_matrix_product(t, 1, a))
        rhs = np.linalg.norm(a @ tensors.unfold(t, 1))
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_dimension_mismatch_raises(self):
        t = np.zeros((3, 4))
        with pytest.raises(ValueError):
            tensors.mode_vector_product(t, 0, np.ones(4))
        with pytest.raises(ValueError):
            tensors.mode_matrix_product(t, 1, np.ones((2, 3)))


class TestNorm:
    def test_zero(self):
        assert tensors.frobenius_norm(np.zeros((2, 3, 4))) == 0.0

    def test_single_entry(self):
        assert tensors.frobenius_norm(np.array([3.0])) == 3.0

    def test_entries_one_to_eight(self):
        t = canon(range(1, 9), (2, 2, 2))
        assert tensors.frobenius_norm(t) == pytest.approx(np.sqrt(204.0), rel=1e-15)


class TestBinaryFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(10)
        t = rng.standard_normal((3, 5, 2))
        buf = io.BytesIO()
        tensors.write_tensor(buf, t)
        buf.seek(0)
        assert np.array_equal(tensors.read_tensor(buf), t)

    def test_layout_is_first_index_fastest(self):
        t = canon(range(1, 9), (2, 2, 2))
        buf = io.BytesIO()
        tensors.write_tensor(buf, t)
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
            tensors.write_tensor(buf, t)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    @pytest.mark.parametrize("cut", [2, 6, 20, 33, 40])
    def test_short_read_states_byte_counts(self, cut):
        buf = io.BytesIO()
        tensors.write_tensor(buf, np.ones((2, 2, 2)))
        raw = buf.getvalue()[:cut]
        with pytest.raises(ValueError, match=r"truncated .*expected \d+ bytes, got \d+"):
            tensors.read_tensor(io.BytesIO(raw))

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            tensors.read_tensor(io.BytesIO(b"NOPE" + b"\x00" * 16))
