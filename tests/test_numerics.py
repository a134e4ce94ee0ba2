"""Engine tests: block softmax semantics, gradient checking against central
finite differences, GRU behaviour, Adam, and the checkpoint format."""

import numpy as np
import pytest

from pathcast import numerics as nm
from pathcast.numerics import (AdamState, CorruptCheckpoint, Tensor, adam_step,
                               backward, block_log_prob, block_softmax, compile_blocks,
                               gru_step,
                               load_params, save_params)

import reference as ref
from reference import composed_gru_step, finite_difference, max_rel_err, random_partition


class TestBlockSoftmax:
    def test_within_block_symmetry(self):
        out = block_softmax(np.array([[0.0, 0.0, 1.0, 1.0, 1.0]]),
                            compile_blocks([[0, 1], [2, 3, 4]], range(5)))[0]
        np.testing.assert_allclose(out, [0.5, 0.5, 1 / 3, 1 / 3, 1 / 3])

    def test_singleton_block(self):
        out = block_softmax(np.array([[123.4]]), compile_blocks([[0]], range(1)))[0]
        assert out[0] == 1.0

    def test_matches_direct_formula(self):
        # exp(z)/sum(exp(z)) evaluated in full precision for [1,2,3]
        out = block_softmax(np.array([[1.0, 2.0, 3.0]]), compile_blocks([[0, 1, 2]], range(3)))[0]
        e = np.exp([1.0, 2.0, 3.0])
        np.testing.assert_allclose(out, e / e.sum(), atol=1e-5)
        np.testing.assert_allclose(out, [0.09003057, 0.24472847, 0.66524096], atol=1e-5)

    def test_block_sums_and_independence(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            k = int(rng.integers(1, 10))
            blocks = random_partition(rng, k)
            z = rng.normal(0, 3, k)
            y = block_softmax(z[None, :], compile_blocks(blocks, range(k)))[0]
            for b in blocks:
                assert abs(y[list(b)].sum() - 1.0) < 1e-12
            # perturbing logits outside a block must not change it
            target = blocks[0]
            z2 = z.copy()
            for i in range(k):
                if i not in target:
                    z2[i] += rng.normal(0, 5)
            y2 = block_softmax(z2[None, :], compile_blocks(blocks, range(k)))[0]
            np.testing.assert_allclose(y2[list(target)], y[list(target)], atol=1e-12)

    def test_shift_invariance_per_block(self):
        rng = np.random.default_rng(11)
        z = rng.normal(size=6)
        blocks = compile_blocks([[0, 2, 4], [1, 3], [5]], range(6))
        y = block_softmax(z[None, :], blocks)[0]
        z2 = z.copy()
        z2[[0, 2, 4]] += 17.5
        y2 = block_softmax(z2[None, :], blocks)[0]
        np.testing.assert_allclose(y2, y, atol=1e-12)

    def test_partition_validation(self):
        # checked once, where the partition is compiled for block_softmax
        with pytest.raises(nm.EmptyBlock):
            compile_blocks([[0, 1], []], range(2))
        with pytest.raises(nm.IndexOutOfRange):
            compile_blocks([[0, 5]], range(2))
        with pytest.raises(ValueError, match="covers 1 of 2"):
            compile_blocks([[0]], range(2))  # does not cover index 1
        with pytest.raises(ValueError, match="two blocks"):
            compile_blocks([[0, 1], [1]], range(2))  # overlap


class TestBackward:
    def test_square_gradient(self):
        x = Tensor(3.0)
        loss = ref.mul(x, x)
        backward(loss)
        assert abs(float(x.grad) - 6.0) < 1e-12

    def test_disconnected_parameter_reports_zero(self):
        x = Tensor(2.0)
        unused = Tensor(5.0)
        loss = ref.mul(x, x)
        backward(loss)
        grads = ref.collect_grads({"x": x, "unused": unused})
        assert grads["unused"] == pytest.approx(0.0)

    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0])
        with pytest.raises(nm.ShapeMismatch):
            backward(nm.tanh(x))

    def test_each_node_visited_once(self):
        # diamond: y = (x+x) * (x+x); gradient must be 8x, not accumulated twice
        x = Tensor(1.5)
        s = ref.add(x, x)
        loss = ref.mul(s, s)
        backward(loss)
        assert abs(float(x.grad) - 8 * 1.5) < 1e-12

    @pytest.mark.parametrize("add_n_first", [True, False])
    def test_add_n_parent_that_feeds_another_node_matches_fd(self, add_n_first):
        # add_n hands one gradient array to both of its parents, and ``a``
        # also feeds tanh: tanh's gradient must not be added into the array
        # that ``b`` holds too. Each order of the two loss terms runs the
        # add_n node's backward before, or after, the tanh node's.
        rng = np.random.default_rng(4)
        params = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=(2, 3))}

        def build(p):
            a, b = Tensor(p["a"]), Tensor(p["b"])
            s = ref.add_n([a, b])
            terms = [ref.sum_all(ref.mul(s, s)), ref.sum_all(nm.tanh(a))]
            return ref.add(*(terms if add_n_first else terms[::-1])), (a, b)

        loss, (a, b) = build(params)
        backward(loss)
        fd = finite_difference(lambda p: build(p)[0].item(), params)
        assert max_rel_err(a.grad, fd["a"]) < 1e-6
        assert max_rel_err(b.grad, fd["b"]) < 1e-6

    def test_mlp_block_softmax_nll_matches_fd(self):
        rng = np.random.default_rng(3)
        params = {
            "w1": rng.normal(0, 0.5, (4, 5)),
            "b1": rng.normal(0, 0.5, 5),
            "w2": rng.normal(0, 0.5, (5, 6)),
            "b2": rng.normal(0, 0.5, 6),
        }
        x = rng.normal(size=(2, 4))
        blocks = [[0, 1, 2], [3, 4], [5]]

        def build(p):
            ts = nm.parameters(p)
            h = nm.tanh(nm.affine(Tensor(x), ts["w1"], ts["b1"]))
            z = nm.affine(h, ts["w2"], ts["b2"])
            lp = ref.row_log_prob(z, ref.row_blocks(blocks[:2]), [1, 4])
            return ref.neg(ref.sum_all(lp)), ts

        loss, ts = build(params)
        backward(loss)
        fd = finite_difference(lambda p: build(p)[0].item(), params)
        for name in params:
            assert max_rel_err(ts[name].grad, fd[name]) < 1e-4

    def test_gru_unrolled_matches_fd(self):
        rng = np.random.default_rng(5)
        d, hdim = 3, 4
        raw = {}
        gp = ref.gru_init(d, hdim, rng, "g", raw)
        params = {k: v.data.copy() for k, v in raw.items()}
        xs = rng.normal(size=(5, d))

        def build(p):
            ts = nm.parameters(p)
            g = nm.GruParams(*[ts[f"g.{f}"] for f in
                               ("w_re", "w_rf", "b_r", "w_ue", "w_uf", "b_u",
                                "w_ce", "w_cf", "b_c")])
            f = Tensor(np.zeros((1, hdim)))
            for t in range(5):
                f = gru_step(g, Tensor(xs[t][None, :]), f, *ref.whole_steps(1))
            return ref.sum_all(nm.tanh(f)), ts

        loss, ts = build(params)
        backward(loss)
        fd = finite_difference(lambda p: build(p)[0].item(), params)
        for name in params:
            assert max_rel_err(ts[name].grad, fd[name]) < 1e-4

    @pytest.mark.parametrize("seed", range(20))
    def test_primitive_gradients_20_seeds(self, seed):
        rng = np.random.default_rng(seed)
        a0 = rng.normal(size=(3, 4))
        b0 = rng.normal(size=(4, 3))
        v0 = rng.normal(size=3)
        params = {"a": a0, "b": b0, "v": v0}

        def build(p):
            a = Tensor(p["a"])
            b = Tensor(p["b"])
            v = Tensor(p["v"])
            m = nm.affine(a, b, v)
            y = ref.mul(nm.tanh(m), ref.sigmoid(m))
            row = ref.take_row(nm.gather_rows(y, [2, 0, 1]), 0)
            lp = ref.block_log_prob_row(row, [0, 1], 1)
            return ref.add(ref.scale(ref.sum_all(y), 0.25), ref.neg(lp)), (a, b, v)

        loss, (a, b, v) = build(params)
        backward(loss)
        fd = finite_difference(lambda p: build(p)[0].item(), params)
        assert max_rel_err(a.grad, fd["a"]) < 1e-4
        assert max_rel_err(b.grad, fd["b"]) < 1e-4
        assert max_rel_err(v.grad, fd["v"]) < 1e-4

    def test_block_log_prob_matches_log_of_block_softmax(self):
        rng = np.random.default_rng(9)
        z = rng.normal(0, 4, 7)
        blocks = [[0, 3, 5], [1, 2], [4, 6]]
        y = block_softmax(z[None, :], compile_blocks(blocks, range(7)))[0]
        for blk in blocks:
            for t in blk:
                lp = ref.row_log_prob(Tensor(z[None, :]), ref.row_blocks([blk]), [t]).data[0]
                assert abs(np.exp(lp) - y[t]) < 1e-12


class TestGru:
    def test_zero_params_zero_inputs(self):
        rng = np.random.default_rng(0)
        raw = {}
        gp = ref.gru_init(3, 4, rng, "g", raw)
        for t in raw.values():
            t.data[...] = 0.0
        out = gru_step(gp, Tensor(np.zeros((1, 3))), Tensor(np.zeros((1, 4))), *ref.whole_steps(1))
        np.testing.assert_allclose(out.data, np.zeros((1, 4)))

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(1)
        d, hdim = 3, 5
        raw = {}
        gp = ref.gru_init(d, hdim, rng, "g", raw)
        e = rng.normal(size=d)
        f = rng.normal(size=hdim)
        out = gru_step(gp, Tensor(e[None, :]), Tensor(f[None, :]), *ref.whole_steps(1)).data[0]

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        # scalar-loop oracle of r/u/c gates, no vectorized shortcuts
        W = {k: raw[f"g.{k}"].data for k in ("w_re", "w_rf", "b_r", "w_ue", "w_uf",
                                             "b_u", "w_ce", "w_cf", "b_c")}
        r = np.zeros(hdim)
        u = np.zeros(hdim)
        for i in range(hdim):
            r[i] = sig(sum(e[k] * W["w_re"][k, i] for k in range(d))
                       + sum(f[k] * W["w_rf"][k, i] for k in range(hdim)) + W["b_r"][i])
            u[i] = sig(sum(e[k] * W["w_ue"][k, i] for k in range(d))
                       + sum(f[k] * W["w_uf"][k, i] for k in range(hdim)) + W["b_u"][i])
        scalar = np.zeros(hdim)
        for i in range(hdim):
            ci = np.tanh(sum(e[k] * W["w_ce"][k, i] for k in range(d))
                         + sum(r[k] * f[k] * W["w_cf"][k, i] for k in range(hdim))
                         + W["b_c"][i])
            scalar[i] = (1 - u[i]) * f[i] + u[i] * ci
        np.testing.assert_allclose(out, scalar, atol=1e-12)

    def test_saturated_update_gate_keeps_state(self):
        rng = np.random.default_rng(2)
        raw = {}
        gp = ref.gru_init(3, 4, rng, "g", raw)
        raw["g.b_u"].data[...] = -50.0  # u ~ 0 => f_t ~ f_prev
        f_prev = rng.normal(size=(1, 4))
        out = gru_step(gp, Tensor(rng.normal(size=(1, 3))), Tensor(f_prev),
                       *ref.whole_steps(1)).data
        np.testing.assert_allclose(out, f_prev, atol=1e-6)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(3)
        raw = {}
        gp = ref.gru_init(3, 4, rng, "g", raw)
        with pytest.raises(nm.ShapeMismatch):
            gru_step(gp, Tensor(np.zeros((1, 5))), Tensor(np.zeros((1, 4))), *ref.whole_steps(1))


GRU_FIELDS = ("w_re", "w_rf", "b_r", "w_ue", "w_uf", "b_u", "w_ce", "w_cf", "b_c")


class TestFusedKernels:
    def test_matrix_gru_step_matches_composed_reference(self):
        rng = np.random.default_rng(11)
        d, hdim, m = 4, 6, 3
        raw = {}
        ref.gru_init(d, hdim, rng, "g", raw)
        arrays = {k.split(".")[1]: v.data + rng.normal(0, 0.1, v.data.shape)
                  for k, v in raw.items()}  # nonzero biases too
        e0, f0 = rng.normal(size=(m, d)), rng.normal(size=(m, hdim))
        upstream = rng.normal(size=(m, hdim))

        def run(step):
            ts = nm.parameters({k: arrays[k] for k in GRU_FIELDS})
            e, f = Tensor(e0), Tensor(f0)
            out = step(nm.GruParams(*[ts[k] for k in GRU_FIELDS]), e, f)
            backward(ref.sum_all(ref.mul(out, Tensor(upstream))))
            grads = {k: t.grad for k, t in ts.items()}
            grads.update(e_t=e.grad, f_prev=f.grad)
            return out, grads

        fused, g_fused = run(lambda p, e, f: gru_step(p, e, f, *ref.whole_steps(m)))
        composed, g_composed = run(composed_gru_step)
        assert fused.data.tobytes() == composed.data.tobytes()
        assert fused._parents and all(not p._parents for p in fused._parents)  # one node
        for name in g_composed:
            np.testing.assert_allclose(g_fused[name], g_composed[name], rtol=0, atol=1e-12)

    @staticmethod
    def _rows_case(rng):
        z0 = rng.normal(0, 3, (6, 9))
        blocks = [[0, 4, 7], None, [5], [1, 2, 3, 6, 8], None, [8, 3]]
        targets = [4, 0, 5, 6, 0, 3]
        weights = rng.normal(size=6)
        return z0, blocks, targets, weights

    def test_rows_block_log_prob_matches_per_row_vector_calls(self):
        z0, blocks, targets, weights = self._rows_case(np.random.default_rng(12))
        z_rows, z_vec = Tensor(z0), Tensor(z0)
        rows = ref.row_log_prob(z_rows, ref.row_blocks(blocks),
                                [t for b, t in zip(blocks, targets) if b is not None])
        backward(nm.weighted_sum(rows, weights))
        terms = []
        for i, (blk, t) in enumerate(zip(blocks, targets)):
            if blk is None:
                assert rows.data[i] == 0.0
                continue
            one = ref.block_log_prob_row(ref.take_row(z_vec, i), blk, t)
            assert rows.data[i] == one.item()
            terms.append(ref.scale(one, weights[i]))
        backward(ref.add_n(terms))
        np.testing.assert_allclose(z_rows.grad, z_vec.grad, rtol=0, atol=1e-12)
        assert not z_rows.grad[[1, 4]].any()  # unscored rows get no gradient

    def test_rows_block_log_prob_matches_fd(self):
        z0, blocks, targets, weights = self._rows_case(np.random.default_rng(13))

        def build(p):
            z = Tensor(p["z"])
            lp = ref.row_log_prob(z, ref.row_blocks(blocks),
                                  [t for b, t in zip(blocks, targets) if b is not None])
            return nm.weighted_sum(lp, weights), z

        loss, z = build({"z": z0})
        backward(loss)
        fd = finite_difference(lambda p: build(p)[0].item(), {"z": z0.copy()})
        assert max_rel_err(z.grad, fd["z"]) < 1e-6

    def test_rows_block_log_prob_checks_every_row(self):
        z = Tensor(np.zeros((2, 4)))
        with pytest.raises(nm.IndexOutOfRange):
            ref.row_log_prob(z, ref.row_blocks([[0, 1], [2, 3]]), [1, 0])  # row 1's target outside
        with pytest.raises(nm.EmptyBlock):
            ref.row_log_prob(z, ref.row_blocks([[0, 1], []]), [1, 0])
        with pytest.raises(nm.ShapeMismatch):
            ref.row_log_prob(z, ref.row_blocks([[0, 1]]), [1, 0])  # two targets for one block
        assert not ref.row_log_prob(z, ref.row_blocks([None, None]), []).data.any()

    @staticmethod
    def _lanes_case(rng):
        """A layout of blocks on random rows of ``z [N,V]``, into random lanes
        of ``m``: more blocks than rows and than lanes, so blocks share rows
        (their columns may overlap) and lanes."""
        n, v, m = int(rng.integers(1, 5)), int(rng.integers(2, 9)), int(rng.integers(1, 4))
        rows = rng.integers(n, size=n + m + int(rng.integers(1, 6)))
        cols = [[int(c) for c in rng.choice(v, size=int(rng.integers(1, v + 1)), replace=False)]
                for _ in rows]
        targets = [blk[int(rng.integers(len(blk)))] for blk in cols]
        layout = nm.stack_blocks([compile_blocks([range(len(b))], b) for b in cols], rows)
        return (rng.normal(0, 3, (n, v)), layout, rows, cols, targets,
                rng.integers(m, size=rows.size), m, rng.normal(size=m))

    @pytest.mark.parametrize("seed", range(8))
    def test_block_log_prob_sums_blocks_into_their_lanes(self, seed):
        z0, layout, rows, cols, targets, lanes, m, weights = self._lanes_case(
            np.random.default_rng(seed))
        z_lanes, z_one = Tensor(z0), Tensor(z0)
        lp = block_log_prob(z_lanes, layout, targets, lanes, m)
        backward(nm.weighted_sum(lp, weights))
        ones = [ref.block_log_prob_row(ref.take_row(z_one, int(r)), blk, t)
                for r, blk, t in zip(rows, cols, targets)]
        for lane in range(m):  # each lane's blocks, added in block order
            assert lp.data[lane] == sum(o.item() for o, i in zip(ones, lanes) if i == lane)
        backward(ref.add_n([ref.scale(o, weights[i]) for o, i in zip(ones, lanes)]))
        np.testing.assert_allclose(z_lanes.grad, z_one.grad, rtol=0, atol=1e-12)

        def build(p):
            z = Tensor(p["z"])
            return nm.weighted_sum(block_log_prob(z, layout, targets, lanes, m), weights), z

        loss, z = build({"z": z0})
        backward(loss)
        fd = finite_difference(lambda p: build(p)[0].item(), {"z": z0.copy()})
        assert max_rel_err(z.grad, fd["z"]) < 1e-6

    def test_block_log_prob_checks_its_lanes(self):
        z = Tensor(np.zeros((2, 4)))
        layout = ref.row_blocks([[0, 1], [2, 3]])
        for lanes in ([0, 2], [-1, 0]):
            with pytest.raises(nm.IndexOutOfRange):
                block_log_prob(z, layout, [1, 2], lanes, 2)
        for lanes in ([0], [0, 1, 1]):
            with pytest.raises(nm.ShapeMismatch):
                block_log_prob(z, layout, [1, 2], lanes, 2)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = nm.parameters({"w": [1.0, -2.0]})
        st = AdamState(p, {"w": 0.1})
        p["w"].grad = np.zeros(2)
        adam_step(st, p)
        np.testing.assert_allclose(p["w"].data, [1.0, -2.0])

    def test_first_step_closed_form(self):
        # constant gradient 1 with lr 0.1: bias-corrected step is lr/(1+eps)
        p = nm.parameters({"w": [0.0]})
        st = AdamState(p, {"w": 0.1})
        p["w"].grad = np.ones(1)
        adam_step(st, p)
        assert abs(float(p["w"].data[0]) + 0.1) < 1e-8

    def test_quadratic_bowl_descends(self):
        p = nm.parameters({"w": [5.0, -4.0]})
        st = AdamState(p, {"w": 0.05})
        losses = []
        for _ in range(100):
            losses.append(float(np.sum(p["w"].data ** 2)))
            p["w"].grad = 2 * p["w"].data
            adam_step(st, p)
        assert all(b <= a + 1e-12 for a, b in zip(losses[5:], losses[6:]))
        assert losses[-1] < losses[0] * 0.1

    def test_deterministic_updates(self):
        def run():
            p = nm.parameters({"w": [0.3, 0.7]})
            st = AdamState(p, {"w": 0.01})
            for k in range(10):
                p["w"].grad = np.array([np.sin(k), np.cos(k)])
                adam_step(st, p)
            return p["w"].data.tobytes()

        assert run() == run()

    def test_shape_check(self):
        p = nm.parameters({"w": [1.0, 2.0]})
        p["w"].grad = np.zeros(3)
        with pytest.raises(nm.ShapeMismatch):
            adam_step(AdamState(p, {"w": 0.1}), p)

    def test_parameters_are_views_of_one_buffer(self):
        p = nm.parameters({"w": [[1.0, 2.0], [3.0, 4.0]], "b": 5.0, "v": [6.0]})
        st = AdamState(p, dict.fromkeys(p, 0.1))
        assert st.buffer.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert [t.shape for t in p.values()] == [(2, 2), (), (1,)]
        assert all(t.data.base is st.buffer for t in p.values())

    def test_parameters_copy_their_arrays(self):
        w = np.array([1.0, 2.0])
        p = nm.parameters({"w": w})
        p["w"].data[0] = 7.0
        assert w.tolist() == [1.0, 2.0]

    def test_state_needs_one_buffer_in_order(self):
        q = nm.parameters({"w": [1.0], "b": [2.0]})
        for params in ({**nm.parameters({"w": [1.0]}), **nm.parameters({"b": [2.0]})},
                       {"b": q["b"], "w": q["w"]}, {"w": q["w"]}):
            with pytest.raises(ValueError, match="one parameter buffer"):
                AdamState(params, dict.fromkeys(params, 0.1))

    def test_rebound_data_raises(self):
        p = nm.parameters({"w": [1.0, 2.0], "b": [0.5]})
        st = AdamState(p, dict.fromkeys(p, 0.1))
        adam_step(st, p)
        p["b"].data = p["b"].data + 1.0
        with pytest.raises(ValueError, match="parameter 'b' is no longer a view"):
            adam_step(st, p)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_gradient_names_the_parameter(self, bad):
        p = nm.parameters({"w": [1.0, 2.0], "b": [0.5, 0.5]})
        st = AdamState(p, dict.fromkeys(p, 0.1))
        p["w"].grad = np.ones(2)
        adam_step(st, p)
        p["b"].grad = np.array([0.0, bad])
        with pytest.raises(nm.NonFiniteValue, match="adam step 2: parameter 'b' is not finite"):
            adam_step(st, p)

    def test_an_overflowing_second_moment_names_the_parameter(self):
        # (1 - beta2) * g * g overflows for a finite g above about 1e154; left
        # unchecked, v stays inf and every later update of the weight is 0
        p = nm.parameters({"b": [0.5], "w": [1.0, 1.0]})
        st = AdamState(p, dict.fromkeys(p, 0.1))
        p["b"].grad = np.ones(1)
        p["w"].grad = np.array([1e200, 1.0])
        with pytest.raises(nm.NonFiniteValue,
                           match="adam step 1: parameter 'w' has a second moment that overflows"):
            adam_step(st, p)


class TestFiniteBoundaries:
    """Finiteness is checked at the boundaries only (see the module
    docstring), each check naming its boundary; a Tensor holds what it is
    given."""

    def test_require_finite_names_its_boundary(self):
        for bad in (np.inf, -np.inf, np.nan):
            for what in ("inputs", "logits", "loss"):
                with pytest.raises(nm.NonFiniteValue, match=f"^non-finite {what}$"):
                    nm.require_finite(np.array([[0.0, bad]]), what)
            np.testing.assert_array_equal(Tensor([1.0, bad]).data, [1.0, bad])
        nm.require_finite(np.zeros((2, 3)), "logits")

    def test_the_weights_boundary_names_the_first_bad_parameter(self):
        p = nm.parameters({"w": [[1.0, 2.0]], "b": [0.5, 0.5], "v": [3.0]})
        nm.require_finite_parameters(p)
        p["v"].data[0] = np.inf
        p["b"].data[1] = np.nan
        with pytest.raises(nm.NonFiniteValue, match="^parameter 'b' is not finite$"):
            nm.require_finite_parameters(p)
        assert issubclass(nm.NonFiniteValue, ValueError)


class TestTensorInvariants:
    def test_sigmoid_extreme_inputs_stay_finite(self):
        out = ref.sigmoid(Tensor([-1000.0, 0.0, 1000.0]))
        np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0], atol=1e-12)

    def test_same_shape_enforced(self):
        with pytest.raises(nm.ShapeMismatch):
            ref.add(Tensor([1.0]), Tensor([1.0, 2.0]))


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        params = {"emb": rng.normal(size=(7, 3)), "b": rng.normal(size=5),
                  "scalar": np.array(2.5)}
        path = str(tmp_path / "weights.pck")
        save_params(path, params)
        back = load_params(path)
        assert set(back) == set(params)
        for k in params:
            np.testing.assert_array_equal(back[k], params[k])

    def test_header_and_layout(self, tmp_path):
        path = str(tmp_path / "w.pck")
        save_params(path, {"ab": np.array([1.0, 2.0])})
        blob = open(path, "rb").read()
        assert blob[:4] == b"PCK1"
        # name length, name, rank, dim, payload
        assert blob[4:8] == (2).to_bytes(4, "little")
        assert blob[8:10] == b"ab"
        assert blob[10:14] == (1).to_bytes(4, "little")
        assert blob[14:18] == (2).to_bytes(4, "little")
        assert np.frombuffer(blob[18:], dtype="<f8").tolist() == [1.0, 2.0]

    def _blob(self, tmp_path, params):
        path = tmp_path / "w.pck"
        save_params(str(path), params)
        return path, path.read_bytes()

    def test_rejects_truncated_record(self, tmp_path):
        path, blob = self._blob(tmp_path, {"a": np.ones(3), "b": np.ones(2)})
        path.write_bytes(blob[:-5])
        with pytest.raises(CorruptCheckpoint, match="truncated record"):
            load_params(str(path))

    def test_rejects_trailing_bytes(self, tmp_path):
        path, blob = self._blob(tmp_path, {"a": np.ones(3)})
        path.write_bytes(blob + b"\x00\x01")
        with pytest.raises(CorruptCheckpoint, match="2 trailing bytes"):
            load_params(str(path))

    def test_rejects_duplicate_name(self, tmp_path):
        path, blob = self._blob(tmp_path, {"a": np.ones(3)})
        path.write_bytes(blob + blob[4:])
        with pytest.raises(CorruptCheckpoint, match="duplicate parameter 'a'"):
            load_params(str(path))

    def test_rejects_non_finite_payload(self, tmp_path):
        for bad in (np.nan, np.inf, -np.inf):
            path, _ = self._blob(tmp_path, {"a": np.array([1.0, bad])})
            with pytest.raises(CorruptCheckpoint, match="non-finite"):
                load_params(str(path))

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.pck"
        path.write_bytes(b"NOPE")
        with pytest.raises(ValueError):
            load_params(str(path))
