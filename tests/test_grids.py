import numpy as np
import pytest

from tromkit.grids import GridAxis, ParameterGrid, interp_weights, uniform_axis


def grid1d(nodes, **kw):
    return ParameterGrid((GridAxis(np.asarray(nodes, dtype=float), **kw),))


class TestGridValidation:
    def test_nodes_must_increase(self):
        with pytest.raises(ValueError):
            GridAxis(np.array([0.0, 0.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nodes_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            GridAxis(np.array([0.0, bad, 1.0]))
        d = grid1d([0.0, 0.5, 1.0]).to_dict()
        d["axes"][0]["nodes"][1] = bad
        with pytest.raises(ValueError, match="finite"):
            ParameterGrid.from_dict(d)

    @pytest.mark.parametrize("key,bad", [("lo", -np.inf), ("hi", np.inf), ("hi", np.nan)])
    def test_box_must_be_finite(self, key, bad):
        with pytest.raises(ValueError, match="bounds must be finite"):
            GridAxis(np.array([0.0, 1.0]), **{key: bad})
        d = grid1d([0.0, 0.5, 1.0]).to_dict()
        d["axes"][0][key] = bad
        with pytest.raises(ValueError, match="bounds must be finite"):
            ParameterGrid.from_dict(d)

    def test_nodes_must_fit_box(self):
        with pytest.raises(ValueError):
            GridAxis(np.array([0.0, 2.0]), lo=0.0, hi=1.0)

    def test_log_axis_needs_positive_nodes(self):
        with pytest.raises(ValueError):
            GridAxis(np.array([-1.0, 1.0]), log_scale=True)

    @pytest.mark.parametrize("lo", [0.0, -0.5])
    def test_log_axis_needs_positive_box(self, lo):
        # sampling such a box would take log(lo)
        with pytest.raises(ValueError, match="positive box"):
            GridAxis(np.array([0.1, 1.0]), log_scale=True, lo=lo)
        d = ParameterGrid((GridAxis(np.array([0.1, 1.0]), log_scale=True),)).to_dict()
        d["axes"][0]["lo"] = lo
        with pytest.raises(ValueError, match="positive box"):
            ParameterGrid.from_dict(d)

    def test_shape_and_points(self):
        g = ParameterGrid((GridAxis(np.array([0.0, 1.0])),
                           GridAxis(np.array([0.0, 0.5, 1.0]))))
        assert g.shape == (2, 3)
        pts = list(g.points())
        assert len(pts) == 6
        assert np.array_equal(pts[0][1], [0.0, 0.0])

    def test_uniform_axis_log_spacing(self):
        ax = uniform_axis(0.01, 0.5, 4, log_scale=True)
        ratios = ax.nodes[1:] / ax.nodes[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_samples_stay_in_box(self):
        g = ParameterGrid((uniform_axis(0.01, 0.5, 3, log_scale=True),
                           uniform_axis(0.2, 0.8, 4)))
        pts = g.sample(50, np.random.default_rng(0))
        assert all(g.contains(p) for p in pts)

    def test_contains_needs_one_entry_per_axis(self):
        g = ParameterGrid((uniform_axis(0.0, 1.0, 3), uniform_axis(0.0, 1.0, 3)))
        assert g.contains([0.5, 0.5])
        assert not g.contains([0.5])
        assert not g.contains([0.5, 0.5, 7.0])
        assert not g.contains([0.5, 1.5])

    def test_dict_round_trip(self):
        g = ParameterGrid((uniform_axis(0.01, 0.5, 3, log_scale=True),
                           uniform_axis(0.0, 0.3, 3, box=(0.0, 1.0))))
        g2 = ParameterGrid.from_dict(g.to_dict())
        assert g2.to_dict() == g.to_dict()


class TestInterpWeights:
    def test_node_hit_gives_canonical_vector(self):
        g = grid1d([0.1, 0.4, 0.9])
        for p in (1, 2, 3):
            w = interp_weights(g, [0.4], p)[0]
            assert np.array_equal(w, [0.0, 1.0, 0.0])

    def test_linear_weights(self):
        g = grid1d([0.0, 1.0])
        w = interp_weights(g, [0.25], 2)[0]
        assert np.allclose(w, [0.75, 0.25], rtol=0, atol=1e-15)

    def test_quadratic_weights(self):
        g = grid1d([0.0, 1.0, 2.0])
        w = interp_weights(g, [0.5], 3)[0]
        assert np.allclose(w, [0.375, 0.75, -0.125], rtol=0, atol=1e-14)

    def test_weights_sum_to_one(self):
        g = ParameterGrid((uniform_axis(0.01, 0.5, 5, log_scale=True),
                           uniform_axis(0.2, 0.8, 7)))
        rng = np.random.default_rng(1)
        for alpha in g.sample(25, rng):
            for p in (1, 2, 3, 4):
                for w in interp_weights(g, alpha, p):
                    assert abs(w.sum() - 1.0) < 1e-12

    def test_at_most_p_nonzeros(self):
        g = grid1d(np.linspace(0, 1, 9))
        for p in (1, 2, 3, 4):
            w = interp_weights(g, [0.37], p)[0]
            assert np.count_nonzero(w) <= p

    def test_p2_uses_bracketing_nodes(self):
        g = grid1d([0.0, 0.3, 1.0])
        w = interp_weights(g, [0.5], 2)[0]
        # 0.5 is closer to 0.3 and 0.3's neighbor 0.0 than to 1.0 by pure
        # distance, but linear interpolation must bracket.
        assert w[0] == 0.0 and w[1] > 0 and w[2] > 0

    def test_closest_measured_in_log_scale(self):
        nodes = np.array([0.01, 0.1, 1.0, 2.0])
        lin = ParameterGrid((GridAxis(nodes),))
        log = ParameterGrid((GridAxis(nodes, log_scale=True),))
        # at 0.3 with 3 support nodes, the log metric drops the 0.01 node
        # while the linear metric drops the 2.0 node
        w_log = interp_weights(log, [0.3], 3)[0]
        w_lin = interp_weights(lin, [0.3], 3)[0]
        assert w_log[0] == 0.0 and w_log[3] != 0.0
        assert w_lin[3] == 0.0 and w_lin[0] != 0.0

    def test_polynomial_reproduction(self):
        nodes = np.linspace(0.0, 2.0, 6)
        g = grid1d(nodes)
        coeffs = [0.3, -1.2, 0.7]
        poly = np.polynomial.Polynomial(coeffs)
        for x in (0.11, 0.5, 1.99):
            w = interp_weights(g, [x], 3)[0]
            assert w @ poly(nodes) == pytest.approx(poly(x), rel=1e-11)

    def test_outside_box_rejected(self):
        g = grid1d([0.0, 1.0])
        with pytest.raises(ValueError, match="outside the box"):
            interp_weights(g, [1.5], 2)

    def test_inside_box_beyond_nodes_allowed(self):
        g = grid1d([0.0, 0.5], hi=1.0)
        w = interp_weights(g, [0.75], 2)[0]
        assert abs(w.sum() - 1.0) < 1e-12

    def test_single_node_axis_clamps_order(self):
        g = grid1d([0.7])
        w = interp_weights(g, [0.7], 2)[0]
        assert np.array_equal(w, [1.0])

    def test_wrong_dimension_count(self):
        g = grid1d([0.0, 1.0])
        with pytest.raises(ValueError):
            interp_weights(g, [0.5, 0.5], 2)
