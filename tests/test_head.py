import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vietphon import head, vocab
from vietphon.head import (
    HEADS,
    EmptySequence,
    HeadConfig,
    HeadParams,
    IdOutOfRange,
    LengthMismatch,
    NonFiniteInput,
    NonIntegerIds,
    ShapeMismatch,
    composite_loss,
    finite_difference_grads,
    forward,
    grad_check,
    init_params,
    load_params,
    sequence_grads,
    sequence_loss,
    softmax,
    toy_batch,
    write_params,
)

CONFIG = HeadConfig(dim=4, v_init=7, v_rhyme=9)


@pytest.fixture
def params():
    return init_params(CONFIG, seed=42)


def reference_ffn(f, gain, bias, w_up, w_down, residual="normalized", eps=1e-5):
    """Straight-line scalar recomputation, deliberately loop-based."""
    d = len(f)
    mean = sum(f) / d
    var = sum((x - mean) ** 2 for x in f) / d
    h = [gain[i] * (f[i] - mean) / math.sqrt(var + eps) + bias[i] for i in range(d)]
    hidden = []
    for j in range(2 * d):
        total = sum(h[i] * w_up[i][j] for i in range(d))
        hidden.append(max(total, 0.0))
    base = h if residual == "normalized" else list(f)
    out = []
    for i in range(d):
        out.append(base[i] + sum(hidden[j] * w_down[j][i] for j in range(2 * d)))
    return out


def reference_layer_norm(x, gain, bias):
    """Layer norm written straight from numpy's mean and var."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + head.LN_EPS)
    xhat = (x - mean) * inv
    return gain * xhat + bias, xhat, inv


@st.composite
def layer_norm_inputs(draw):
    """(x, gain, bias) as _ffn hands them to the layer norm: x of shape (n, d) or (B, n, d),
    some rows constant, and gain and bias of shape (d,) or, with a batch, (B, 1, d)."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    batch = draw(st.sampled_from([None, 1, 3]))
    values = st.floats(-1e6, 1e6)
    x = draw(hnp.arrays(np.float64, (n, d) if batch is None else (batch, n, d), elements=values))
    constant = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    x[..., constant, :] = x[..., constant, :1]
    vector = (d,) if batch is None or draw(st.booleans()) else (batch, 1, d)
    return x, draw(hnp.arrays(np.float64, vector, elements=values)), draw(hnp.arrays(np.float64, vector, elements=values))


def with_features(params, f):
    """params, unchecked, whose fused features at ids (0, 0, 0) are f: embed.init row 0 is f
    and fuse is [I; 0; 0]."""
    d = params.config.dim
    embed = params["embed.init"].copy()
    embed[0] = f
    fuse = np.vstack([np.eye(d), np.zeros((2 * d, d))])
    return head.HeadParams(params.config, {**params.arrays, "embed.init": embed, "fuse": fuse})


def run_features(params, f, residual="normalized"):
    """Per head, the logits and the FFN output of the feature vector f."""
    logits, (_, _, layers) = forward(with_features(params, f), [[0, 0, 0]], residual)
    return {h: logits[h][0] for h in HEADS}, {h: layers[h].out[0] for h in HEADS}


def fused(params, ids):
    """The fused features of ids: with residual="input" and a zero init.w_down, the
    init head's output is its input."""
    w_down = np.zeros_like(params["init.w_down"])
    _, (_, _, layers) = forward(head.HeadParams(params.config, {**params.arrays, "init.w_down": w_down}),
                                ids, "input")
    return layers["init"].out


class TestFfn:
    def test_zero_branch_reduces_to_layer_norm(self, params):
        f = np.arange(4, dtype=float)
        params.arrays["init.w_up"] = np.zeros((4, 8))
        params.arrays["init.w_down"] = np.zeros((8, 4))
        _, (_, _, layers) = forward(with_features(params, f), [[0, 0, 0]])
        assert np.array_equal(layers["init"].out, layers["init"].h)
        want = reference_ffn(f.tolist(), params["init.ln_gain"].tolist(), params["init.ln_bias"].tolist(),
                             np.zeros((4, 8)).tolist(), np.zeros((8, 4)).tolist())
        np.testing.assert_allclose(layers["init"].h[0], want, rtol=1e-12, atol=1e-12)

    def test_zero_input_is_defined(self, params):
        d = 4
        params.arrays.update({"init.ln_gain": np.ones(d), "init.ln_bias": np.zeros(d),
                              "init.w_up": np.zeros((d, 2 * d)), "init.w_down": np.zeros((2 * d, d))})
        out = run_features(params, np.zeros(d))[1]["init"]
        assert np.all(np.isfinite(out))
        assert np.array_equal(out, np.zeros(d))

    def test_matches_straight_line_oracle(self, params):
        rng = np.random.default_rng(7)
        f = rng.normal(size=4)
        for residual in ("normalized", "input"):
            got = run_features(params, f, residual)[1]["tone"]
            want = reference_ffn(f.tolist(), params["tone.ln_gain"].tolist(),
                                 params["tone.ln_bias"].tolist(),
                                 params["tone.w_up"].tolist(),
                                 params["tone.w_down"].tolist(), residual)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(layer_norm_inputs())
    def test_layer_norm_is_numpys_mean_and_var_bit_for_bit(self, inputs):
        got = head._layer_norm_fwd(*inputs)
        want = reference_layer_norm(*inputs)
        for name, a, b in zip(("y", "xhat", "inv"), got, want):
            assert a.shape == b.shape and np.array_equal(a, b), name

    def test_non_finite_input(self, params):
        with pytest.raises(NonFiniteInput):
            run_features(params, np.array([1.0, np.nan, 0.0, 0.0]))

    def test_unknown_residual_mode(self, params):
        with pytest.raises(ValueError):
            run_features(params, np.zeros(4), residual="raw")


class TestHeadLogits:
    def test_output_shapes(self, params):
        logits = run_features(params, np.zeros(4))[0]
        assert logits["init"].shape == (7,)
        assert logits["rhyme"].shape == (9,)
        assert logits["tone"].shape == (6,)

    def test_heads_are_independent(self, params):
        f = np.linspace(-1, 1, 4)
        before = run_features(params, f)[0]
        params.arrays["tone.w_up"] += 0.5
        params.arrays["tone.b_out"] += 1.0
        after = run_features(params, f)[0]
        assert np.array_equal(before["init"], after["init"])
        assert np.array_equal(before["rhyme"], after["rhyme"])
        assert not np.array_equal(before["tone"], after["tone"])

    def test_shape_mismatch(self, params):
        wide = head.HeadParams(params.config, {**params.arrays, "fuse": np.zeros((12, 5))})
        with pytest.raises(ShapeMismatch):
            forward(wide, [[0, 0, 0]])

    def test_toy_oracle(self, params):
        f = np.random.default_rng(3).normal(size=4)
        logits = run_features(params, f, residual="normalized")[0]
        for head in HEADS:
            ffn_out = reference_ffn(f.tolist(), params[f"{head}.ln_gain"].tolist(),
                                    params[f"{head}.ln_bias"].tolist(),
                                    params[f"{head}.w_up"].tolist(),
                                    params[f"{head}.w_down"].tolist())
            want = [
                sum(ffn_out[i] * params[f"{head}.w_out"][i][j] for i in range(4))
                + params[f"{head}.b_out"][j]
                for j in range(params.config.vocab_sizes[head])
            ]
            np.testing.assert_allclose(logits[head], want, rtol=1e-12, atol=1e-12)


class TestEmbedPrev:
    def test_block_identity_fusion_sums_embeddings(self, params):
        d = CONFIG.dim
        params.arrays["fuse"] = np.vstack([2.0 * np.eye(d), 3.0 * np.eye(d), 5.0 * np.eye(d)])
        out = fused(params, [(1, 2, 3)])[0]
        want = (2.0 * params["embed.init"][1] + 3.0 * params["embed.rhyme"][2]
                + 5.0 * params["embed.tone"][3])
        np.testing.assert_allclose(out, want, rtol=1e-12)

    def test_row_swap_affects_only_those_ids(self, params):
        ids = [(0, 2, 0), (0, 5, 0), (0, 3, 0)]
        base = fused(params, ids)
        params["embed.rhyme"][[2, 5]] = params["embed.rhyme"][[5, 2]]
        np.testing.assert_array_equal(fused(params, ids), base[[1, 0, 2]])

    def test_permutation_equivariance(self, params):
        rng = np.random.default_rng(11)
        perm = rng.permutation(CONFIG.v_init)
        permuted = init_params(CONFIG, seed=42)
        permuted.arrays["embed.init"] = params["embed.init"][perm]
        new_ids = [int(np.where(perm == original_id)[0][0]) for original_id in range(CONFIG.v_init)]
        np.testing.assert_array_equal(
            fused(params, [(original_id, 1, 1) for original_id in range(CONFIG.v_init)]),
            fused(permuted, [(new_id, 1, 1) for new_id in new_ids]),
        )

    def test_id_out_of_range(self, params):
        with pytest.raises(vocab.IdOutOfRange) as exc:
            forward(params, [(0, CONFIG.v_rhyme, 0)])
        assert exc.value.space == "rhyme" and exc.value.token_id == CONFIG.v_rhyme
        with pytest.raises(IdOutOfRange) as exc:
            forward(params, [(-1, 0, 0)])
        assert exc.value.space == "init" and exc.value.token_id == -1
        assert IdOutOfRange is vocab.IdOutOfRange

    def test_batch_shape(self, params):
        out = fused(params, [[0, 0, 0], [1, 1, 1]])
        assert out.shape == (2, CONFIG.dim)

    def test_ids_must_be_triples(self, params):
        with pytest.raises(ShapeMismatch, match="id triples"):
            forward(params, [[0, 0]])
        with pytest.raises(ShapeMismatch, match="id triples"):
            forward(params, [])


class TestCompositeLoss:
    def test_uniform_logits_give_log_vocab(self):
        n = 3
        logits = {h: np.zeros((n, v)) for h, v in CONFIG.vocab_sizes.items()}
        targets = {h: np.zeros(n, dtype=int) for h in HEADS}
        total, per_head = composite_loss(logits, targets)
        for head, v in CONFIG.vocab_sizes.items():
            assert per_head[head] == pytest.approx(math.log(v), abs=1e-12)
        assert total == per_head["init"] + per_head["rhyme"] + per_head["tone"]

    def test_total_is_exact_sum(self, params):
        rng = np.random.default_rng(0)
        n = 4
        logits = {h: rng.normal(size=(n, v)) for h, v in CONFIG.vocab_sizes.items()}
        targets = {h: rng.integers(0, v, size=n) for h, v in CONFIG.vocab_sizes.items()}
        total, per_head = composite_loss(logits, targets)
        assert total == per_head["init"] + per_head["rhyme"] + per_head["tone"]

    def test_length_mismatch(self):
        logits = {h: np.zeros((2, v)) for h, v in CONFIG.vocab_sizes.items()}
        targets = {"init": [0, 0], "rhyme": [0, 0], "tone": [0]}
        with pytest.raises(LengthMismatch):
            composite_loss(logits, targets)

    def test_logit_rows_must_match_targets(self):
        logits = {h: np.zeros((3, v)) for h, v in CONFIG.vocab_sizes.items()}
        with pytest.raises(LengthMismatch, match="3 logit rows vs 2 targets"):
            composite_loss(logits, {h: [0, 0] for h in HEADS})

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            probs = softmax(rng.normal(scale=10, size=rng.integers(2, 12)))
            assert abs(probs.sum() - 1.0) < 1e-12


class TestGradients:
    def test_analytic_matches_finite_differences(self):
        params, ids, targets = toy_batch(seed=0)
        report = grad_check(params, ids, targets)
        assert report["passed"], report
        assert report["max_rel_err"] < 1e-4

    def test_both_residual_modes(self):
        params, ids, targets = toy_batch(seed=3)
        for residual in ("normalized", "input"):
            report = grad_check(params, ids, targets, residual=residual)
            assert report["passed"], (residual, report["max_rel_err"])

    def test_pre_activations_do_not_depend_on_the_residual_mode(self):
        # toy_batch picks configurations by their pre-activations, so it needs no residual mode
        for seed in range(100):
            params, ids, _ = toy_batch(seed)
            layers = {residual: forward(params, ids, residual)[1][2] for residual in ("normalized", "input")}
            for h in HEADS:
                assert np.array_equal(layers["normalized"][h].u, layers["input"][h].u), (seed, h)

    def test_all_zero_parameters(self):
        drawn = init_params(HeadConfig(dim=3, v_init=4, v_rhyme=5))
        params = HeadParams(drawn.config, {name: np.zeros_like(array) for name, array in drawn.arrays.items()})
        ids = [[0, 0, 0], [1, 2, 3]]
        targets = {"init": [0, 1], "rhyme": [2, 0], "tone": [5, 1]}
        report = grad_check(params, ids, targets)
        assert report["passed"], report

    def test_corrupted_gradient_fails(self, corrupt_gradient):
        params, ids, targets = toy_batch(seed=1)
        corrupt_gradient("init.b_out", 0, 1e-2)
        report = grad_check(params, ids, targets)
        assert not report["passed"]
        assert "init.b_out" in report["failures"]

    def test_a_corrupted_partial_fails_its_array_alone(self, corrupt_gradient):
        for seed in range(10):
            params, ids, targets = toy_batch(seed)
            assert len(params.arrays) == 22
            for name in params.arrays:
                corrupt_gradient(name, 0, 1e-2)
                assert grad_check(params, ids, targets)["failures"] == [name], (seed, name)

    def test_gradient_of_unused_embedding_row_is_zero(self):
        params, ids, targets = toy_batch(seed=2)
        used = set(np.asarray(ids)[:, 1].tolist())
        unused = [r for r in range(params.config.v_rhyme) if r not in used]
        if not unused:
            pytest.skip("toy batch uses every rhyme row")
        _, _, grads = sequence_grads(params, ids, targets)
        assert np.array_equal(grads["embed.rhyme"][unused[0]], np.zeros(params.config.dim))

    def test_loss_decreases_along_negative_gradient(self):
        params, ids, targets = toy_batch(seed=4)
        loss, _, grads = sequence_grads(params, ids, targets)
        for name, array in params.arrays.items():
            array -= 0.05 * grads[name]
        new_loss, _ = sequence_loss(params, ids, targets)
        assert new_loss < loss

    def test_suite_lists_each_failing_config(self, monkeypatch):
        monkeypatch.setattr(head, "GRAD_TOLERANCE", 0.0)  # no error is below 0
        summary = head.run_grad_suite(n_configs=2)
        assert not summary["passed"] and summary["tolerance"] == 0.0
        assert summary["failures"] == [
            {"config": k, "parameters": grad_check(*toy_batch(k))["failures"]} for k in (0, 1)
        ]

    def test_report_dict_shape(self):
        params, ids, targets = toy_batch(seed=0)
        report = grad_check(params, ids, targets)
        assert list(report) == ["max_rel_err", "tolerance", "passed", "failures", "rows"]
        assert list(report["rows"]) == list(params.arrays)
        assert report["max_rel_err"] == max(report["rows"].values())
        assert report["tolerance"] == head.GRAD_TOLERANCE and report["passed"] and report["failures"] == []

    def test_grads_reject_what_the_loss_rejects(self):
        params, ids, targets = toy_batch(seed=0)
        with pytest.raises(ValueError):
            sequence_grads(params, ids, targets, residual="raw")
        bad_ids = np.array(ids)
        bad_ids[0, 0] = -1
        with pytest.raises(IdOutOfRange):
            sequence_grads(params, bad_ids, targets)
        params["embed.init"][:] = np.nan
        with pytest.raises(NonFiniteInput):
            sequence_grads(params, ids, targets)

    def test_grads_total_is_the_loss(self):
        for residual in ("normalized", "input"):
            for seed in range(10):
                params, ids, targets = toy_batch(seed)
                loss, _ = sequence_loss(params, ids, targets, residual)
                total, _, _ = sequence_grads(params, ids, targets, residual)
                assert total == loss, (residual, seed)

    def test_finite_differences_standalone(self):
        params, ids, targets = toy_batch(seed=5)
        numeric = finite_difference_grads(params, ids, targets)
        _, _, analytic = sequence_grads(params, ids, targets)
        worst = max(
            np.max(np.abs(analytic[name] - numeric[name])) for name, _ in params.arrays.items()
        )
        assert worst < 1e-6


def reference_finite_difference_grads(params, prev_ids, targets, residual="normalized"):
    """Central differences one entry at a time at head.FD_STEP, deliberately loop-based.

    Perturbs the caller's arrays in place and restores every entry it touched.
    """
    step, grads = head.FD_STEP, {}
    for name, array in params.arrays.items():
        grad = np.zeros_like(array)
        flat = array.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            up, _ = sequence_loss(params, prev_ids, targets, residual)
            flat[i] = saved - step
            down, _ = sequence_loss(params, prev_ids, targets, residual)
            flat[i] = saved
            gflat[i] = (up - down) / (2.0 * step)
        grads[name] = grad
    return grads


def variants(params, names, count, seed):
    """params with each named array stacked into count seeded variants, and the
    count unbatched HeadParams those rows stand for."""
    rows = [dict(params.arrays) for _ in range(count)]
    for k, row in enumerate(rows):
        drawn = dict(init_params(params.config, seed=seed + k).arrays)
        row.update({name: drawn[name] for name in names})
    stacked = {name: np.stack([row[name] for row in rows]) if name in names else array
               for name, array in params.arrays.items()}
    return head.HeadParams(params.config, stacked), [head.HeadParams(params.config, row) for row in rows]


PARAM_NAMES = list(init_params(CONFIG).arrays)


def loss_calls(monkeypatch):
    """The list of HeadParams that each later head.sequence_loss call receives."""
    calls = []
    monkeypatch.setattr(head, "sequence_loss",
                        lambda params, *args: calls.append(params) or sequence_loss(params, *args))
    return calls


class TestBatchedFiniteDifferences:
    @pytest.mark.parametrize("residual", ["normalized", "input"])
    def test_equals_the_per_entry_loop(self, residual):
        for seed in range(20):
            params, ids, targets = toy_batch(seed)
            got = finite_difference_grads(params, ids, targets, residual)
            want = reference_finite_difference_grads(params, ids, targets, residual)
            assert got.keys() == want.keys()
            for name in want:
                assert np.array_equal(got[name], want[name]), (seed, name)

    @pytest.mark.parametrize("chunk_floats", [head.FD_CHUNK_FLOATS, 150_000, 8_000])
    def test_rows_raise_then_lower_one_entry_each(self, chunk_floats, monkeypatch):
        params, ids, targets = toy_batch(seed=7)
        monkeypatch.setattr(head, "FD_CHUNK_FLOATS", chunk_floats)
        monkeypatch.setattr(head, "FD_STEP", 0.25)
        calls = loss_calls(monkeypatch)
        finite_difference_grads(params, ids, targets)
        done = {}  # pack -> entries perturbed so far
        for variants in calls:
            pack = tuple(name for name, array in variants.arrays.items() if array.ndim > params[name].ndim)
            batch = np.concatenate([variants[name].reshape(len(variants[name]), -1) for name in pack], axis=1)
            flat = np.concatenate([params[name].reshape(-1) for name in pack])
            k, start = len(batch) // 2, done.get(pack, 0)
            up, down, rows = np.tile(flat, (k, 1)), np.tile(flat, (k, 1)), np.arange(k)
            up[rows, start + rows] += 0.25
            down[rows, start + rows] -= 0.25
            assert np.array_equal(batch[:k], up) and np.array_equal(batch[k:], down), pack
            done[pack] = start + k
        assert done == {pack: sum(params[name].size for name in pack) for pack in done}
        assert sorted(name for pack in done for name in pack) == sorted(params.arrays)
        if chunk_floats == 8_000:  # one array a pack, fuse's 108 entries in chunks of 7
            assert len(calls) > len(done)
        else:
            assert any(len(pack) > 1 for pack in done)

    def test_leaves_the_arrays_alone(self):
        params, ids, targets = toy_batch(seed=6)
        before = {name: array.copy() for name, array in params.arrays.items()}
        want = finite_difference_grads(params, ids, targets)
        for name, array in params.arrays.items():
            assert np.array_equal(array, before[name]), name
            array.flags.writeable = False
        got = finite_difference_grads(params, ids, targets)
        for name in want:
            assert np.array_equal(got[name], want[name]), name

    # 1 and 100 give every chunk one entry; 8,000 splits fuse (108 entries) into 15 chunks
    # of 7 and a last chunk of 3; at 150,000 each head's six arrays make two packs of three
    @pytest.mark.parametrize("chunk_floats", [1, 100, 8_000, 150_000])
    def test_chunks_give_the_one_chunk_result(self, chunk_floats, monkeypatch):
        for residual in ("normalized", "input"):
            params, ids, targets = toy_batch(seed=7)
            whole = finite_difference_grads(params, ids, targets, residual)
            monkeypatch.setattr(head, "FD_CHUNK_FLOATS", chunk_floats)
            calls = loss_calls(monkeypatch)
            chunked = finite_difference_grads(params, ids, targets, residual)
            monkeypatch.undo()
            for name in whole:
                assert np.array_equal(chunked[name], whole[name]), (residual, name)
            if chunk_floats == 8_000:
                perturbed = [(np.any(array != params[name], axis=0).sum(), array[0].size)
                             for variants in calls for name, array in variants.arrays.items()
                             if array.ndim > params[name].ndim]
                assert any(1 < count < size for count, size in perturbed), residual
            if chunk_floats == 150_000:
                assert 5 < len(calls) < len(PARAM_NAMES), residual

    def test_chunks_bound_memory_on_long_sequences(self, monkeypatch):
        monkeypatch.setattr(head, "FD_CHUNK_FLOATS", 1 << 16)
        config = HeadConfig(dim=6, v_init=8, v_rhyme=8)
        rng = np.random.default_rng(0)
        ids = np.column_stack([rng.integers(0, v, size=60) for v in (8, 8, 6)])
        targets = {h: rng.integers(0, v, size=60) for h, v in config.vocab_sizes.items()}
        params = init_params(config, seed=1)
        tracemalloc.start()
        try:
            finite_difference_grads(params, ids, targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the activations per chunk are estimated, so allow twice the bound
        assert peak < 2 * 8 * head.FD_CHUNK_FLOATS

    def test_one_loss_call_per_name_prefix_within_a_chunk(self, monkeypatch):
        params, ids, targets = toy_batch(seed=8)
        calls = loss_calls(monkeypatch)
        finite_difference_grads(params, ids, targets)
        batched = [{name.split(".")[0] for name, array in variants.arrays.items()
                    if array.ndim > params[name].ndim} for variants in calls]
        assert batched == [{"fuse"}, {"embed"}, {"init"}, {"rhyme"}, {"tone"}]

        monkeypatch.setattr(head, "FD_CHUNK_FLOATS", 1)
        calls.clear()
        finite_difference_grads(params, ids, targets)
        for variants in calls:
            perturbed = [name for name, array in variants.arrays.items() if np.any(array != params[name])]
            assert len(perturbed) == 1, perturbed

    def test_packs_never_add_loss_calls_on_a_large_config(self, monkeypatch):
        config = HeadConfig(dim=16, v_init=23, v_rhyme=152)
        params = init_params(config, seed=3)
        ids, targets = [[1, 2, 3]], {"init": [4], "rhyme": [5], "tone": [0]}
        calls = loss_calls(monkeypatch)
        finite_difference_grads(params, ids, targets)
        # one pack per array: chunks of the entries whose copies and activations fit FD_CHUNK_FLOATS
        width = 25 * config.dim + 4 * sum(config.vocab_sizes.values())
        per_array = sum(math.ceil(array.size / max(1, head.FD_CHUNK_FLOATS // (2 * (array.size + width))))
                        for array in params.arrays.values())
        assert len(calls) <= per_array


class TestBatchedForward:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), count=st.integers(1, 5),
           names=st.sets(st.sampled_from(PARAM_NAMES), min_size=1, max_size=4),
           residual=st.sampled_from(["normalized", "input"]))
    def test_rows_equal_unbatched_calls(self, seed, count, names, residual):
        params, ids, targets = toy_batch(seed)
        batched, rows = variants(params, names, count, seed)
        totals, per_head = sequence_loss(batched, ids, targets, residual)
        assert totals.shape == (count,)
        for k, row in enumerate(rows):
            total, row_heads = sequence_loss(row, ids, targets, residual)
            assert totals[k] == total
            # a head no batched array reaches keeps an unbatched loss
            assert all(np.broadcast_to(per_head[h], (count,))[k] == row_heads[h] for h in HEADS)

    def test_batched_call_raises_what_an_unbatched_one_raises(self):
        params, ids, targets = toy_batch(seed=0)
        batched, _ = variants(params, ["fuse", "init.w_up", "embed.rhyme"], 3, seed=0)
        with pytest.raises(ValueError):
            sequence_loss(batched, ids, targets, residual="raw")
        bad_ids = np.array(ids)
        bad_ids[0, 0] = -1
        with pytest.raises(IdOutOfRange):
            sequence_loss(batched, bad_ids, targets)
        batched["fuse"][1, 0, 0] = np.nan
        with pytest.raises(NonFiniteInput):
            sequence_loss(batched, ids, targets)

    @pytest.mark.parametrize("batched", [False, True])
    def test_non_integer_ids_and_targets_raise_not_truncate(self, batched):
        params, ids, targets = toy_batch(seed=0)
        if batched:
            params, _ = variants(params, ["fuse", "init.w_up", "embed.rhyme"], 3, seed=0)
        assert issubclass(NonIntegerIds, ValueError)
        ids = np.asarray(ids)
        for bad_ids in (ids + 0.9, ids.astype(float), np.ones_like(ids, dtype=bool)):
            with pytest.raises(NonIntegerIds, match="ids of init, rhyme and tone"):
                forward(params, bad_ids)
            with pytest.raises(NonIntegerIds):
                sequence_loss(params, bad_ids, targets)
        for bad_head in HEADS:
            bad_targets = {**targets, bad_head: np.asarray(targets[bad_head]) + 0.7}
            with pytest.raises(NonIntegerIds, match=f"{bad_head} targets"):
                sequence_loss(params, ids, bad_targets)
            if not batched:
                with pytest.raises(NonIntegerIds, match=f"{bad_head} targets"):
                    sequence_grads(params, ids, bad_targets)
        # integer kinds other than int64 still read
        want = sequence_loss(params, ids, targets)[0]
        assert np.array_equal(sequence_loss(params, ids.astype(np.uint8), targets)[0], want)

    def test_a_bool_among_listed_ints_is_refused(self):
        params, ids, targets = toy_batch(seed=0)
        listed = np.asarray(ids).tolist()
        want = sequence_loss(params, listed, targets)[0]  # plain int lists read as before
        assert want == sequence_loss(params, ids, targets)[0]
        mixed = [[True, *listed[0][1:]], *listed[1:]]
        for bad in (mixed, [np.array([True, False, True]), *np.asarray(ids)[1:]]):
            with pytest.raises(NonIntegerIds, match="ids of init, rhyme and tone"):
                forward(params, bad)
        for bad_head in HEADS:
            bad_targets = {**targets, bad_head: [False, *np.asarray(targets[bad_head]).tolist()[1:]]}
            with pytest.raises(NonIntegerIds, match=f"{bad_head} targets"):
                sequence_loss(params, ids, bad_targets)

    def test_empty_sequence_raises_without_a_warning(self, params):
        assert issubclass(EmptySequence, ValueError)
        empty = {h: [] for h in HEADS}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptySequence):
                sequence_loss(params, np.zeros((0, 3), int), empty)
            with pytest.raises(EmptySequence):
                sequence_grads(params, np.zeros((0, 3), int), empty)
            with pytest.raises(EmptySequence):
                composite_loss({h: np.zeros((0, v)) for h, v in CONFIG.vocab_sizes.items()}, empty)


def param_lines(params):
    """The lines write_params gives for params."""
    out = io.StringIO()
    write_params(params, out)
    return out.getvalue().splitlines()


class TestParamsIo:
    def test_save_load_roundtrip(self, params, tmp_path):
        path = tmp_path / "params.txt"
        with open(path, "w", encoding="utf-8") as fh:
            write_params(params, fh)
        loaded = load_params(path.read_text("utf-8").splitlines())
        for (name, array), (name2, array2) in zip(params.arrays.items(), loaded.arrays.items()):
            assert name == name2
            np.testing.assert_array_equal(array, array2)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            load_params(["nonsense"])

    def test_missing_array_is_named(self, params):
        lines = [l for l in param_lines(params) if not l.startswith("rhyme.w_up\t")]
        with pytest.raises(ValueError, match=r"rhyme\.w_up"):
            load_params(lines)

    def test_missing_header_field_is_named(self, params):
        lines = param_lines(params)
        lines[0] = lines[0].replace(" v_rhyme=9", "", 1)
        with pytest.raises(ValueError, match="v_rhyme"):
            load_params(lines)

    def test_model_dim_at_least_one(self):
        for dim in (0, -1):
            with pytest.raises(ValueError, match="dim"):
                init_params(HeadConfig(dim=dim, v_init=5, v_rhyme=5))

    def test_tone_space_enforced(self):
        with pytest.raises(ShapeMismatch):
            init_params(HeadConfig(dim=4, v_init=5, v_rhyme=5, v_tone=5))

    def test_seeded_init_reproducible(self):
        a = init_params(CONFIG, seed=13)
        b = init_params(CONFIG, seed=13)
        for (_, x), (_, y) in zip(a.arrays.items(), b.arrays.items()):
            np.testing.assert_array_equal(x, y)
        assert float(np.abs(a["fuse"]).max()) <= 0.1
