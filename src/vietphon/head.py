"""Numeric reference of the three-headed phonemic decoder output math.

Plain numpy, double precision.  Per generation step the previous (initial,
rhyme, tone) ids are embedded, concatenated, and fused to the model dimension;
three independent feed-forward heads (layer norm, up/down projection with a
rectifier, residual) each project to their component vocabulary, and the
objective is the exact sum of the three per-head cross entropies.  The
transformer trunk between fusion and heads is out of scope; the fused vector
feeds the heads directly so every parameter sits on one differentiable path,
verified against central finite differences.

Parameter arrays have one name each, the one the parameter file and the
gradient-check report use: ``fuse``, ``embed.<head>``, and ``<head>.<part>``
for each head of HEADS and part of HEAD_PARTS.  HeadParams maps these names to
arrays, and the forward pass, the gradients and the file read them by name.

Every parameter array may carry a leading batch axis of B variants (the other
arrays stay unbatched and broadcast): ``forward`` then returns logits with a
leading axis of B and ``sequence_loss`` one total per variant.  The finite
difference check uses this to perturb every entry of one array in one loss
call, in chunks of at most ``FD_CHUNK_FLOATS`` floats of copies and activations.

numpy is imported on the first read of an ``np`` attribute, not with this
module.  ``cli`` imports this module at its top, and perfbench's tracer finds
it in ``sys.modules`` to patch it; but only ``demo-head`` needs numpy, so the
text pipelines never load it.
"""

from __future__ import annotations

import dataclasses
from collections import namedtuple
from dataclasses import dataclass

from .vocab import IdOutOfRange


class _Numpy:
    """numpy, imported on the first attribute read, which rebinds ``np`` to it."""

    def __getattr__(self, name):
        global np
        import numpy as np

        return getattr(np, name)


np = _Numpy()

HEADS = ("init", "rhyme", "tone")
TONE_SPACE = 6
LN_EPS = 1e-5
HEAD_PARTS = ("ln_gain", "ln_bias", "w_up", "w_down", "w_out", "b_out")
#: most floats (8 MB) one finite-difference chunk holds in perturbed copies and
#: their forward activations, whatever the array and sequence lengths; a chunk
#: has at least one entry
FD_CHUNK_FLOATS = 1 << 20


class NonFiniteInput(ValueError):
    pass


class ShapeMismatch(ValueError):
    pass


class LengthMismatch(ValueError):
    pass


class MalformedParamLine(ValueError):
    """A parameter file line that does not read; line_number counts from 1."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(reason)
        self.line_number = line_number


@dataclass(frozen=True)
class HeadConfig:
    dim: int
    v_init: int
    v_rhyme: int
    v_tone: int = TONE_SPACE

    @property
    def vocab_sizes(self) -> dict[str, int]:
        return {"init": self.v_init, "rhyme": self.v_rhyme, "tone": self.v_tone}


@dataclass
class HeadParams:
    """Every learnable array by its name (see the module docstring), e.g.
    ``params["rhyme.w_up"]``; _param_shapes gives each name's shape.

    Built as given, so an array may carry a batch axis; init_params draws, and
    load_params checks, every name and shape.
    """

    config: HeadConfig
    arrays: dict[str, np.ndarray]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]


#: the order init_params draws the arrays in, which sets every seeded value
_DRAW_ORDER = (*(f"embed.{head}" for head in HEADS), "fuse",
               *(f"{head}.{part}" for part in HEAD_PARTS for head in HEADS))


def _param_shapes(config: HeadConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter array, in file and report order."""
    d, sizes = config.dim, config.vocab_sizes
    shapes = {"fuse": (3 * d, d), **{f"embed.{head}": (v, d) for head, v in sizes.items()}}
    for head, v in sizes.items():
        part_shapes = ((d,), (d,), (d, 2 * d), (2 * d, d), (d, v), (v,))
        shapes.update({f"{head}.{part}": shape for part, shape in zip(HEAD_PARTS, part_shapes)})
    return shapes


def _assemble(config: HeadConfig, arrays: dict[str, np.ndarray]) -> HeadParams:
    """HeadParams from named arrays of the shapes _param_shapes gives, none missing."""
    if config.dim < 1:
        raise ShapeMismatch(f"model dim must be at least 1, got {config.dim}")
    if config.v_tone != TONE_SPACE:
        raise ShapeMismatch(f"tone vocabulary must be {TONE_SPACE}, got {config.v_tone}")
    shapes = _param_shapes(config)
    for name in shapes:
        if name not in arrays:
            raise ValueError(f"missing parameter array {name!r}")
    return HeadParams(config, {name: arrays[name] for name in shapes})


def init_params(config: HeadConfig, seed: int = 0, scale: float = 0.1) -> HeadParams:
    """Seeded uniform initialization in [-scale, scale], reproducible."""
    rng = np.random.default_rng(seed)
    shapes = _param_shapes(config)
    return _assemble(config, {name: rng.uniform(-scale, scale, size=shapes[name]) for name in _DRAW_ORDER})


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def _layer_norm_fwd(x, gain, bias):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)  # ε keeps the degenerate zero-variance case defined
    xhat = (x - mean) * inv
    return gain * xhat + bias, xhat, inv


def _layer_norm_bwd(dy, gain, xhat, inv):
    d = xhat.shape[-1]
    dgain = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    dbias = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * gain
    dx = (inv / d) * (
        d * dxhat
        - dxhat.sum(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True)
    )
    return dx, dgain, dbias


#: one head's FFN intermediates, kept for the backward pass: layer-normed input,
#: standardized input, 1/std, rectifier pre-activations and output, residual sum
FfnCache = namedtuple("FfnCache", "h xhat inv u r out")


def _over_steps(vector):
    """A parameter vector, or a (B, k) batch of them made (B, 1, k) to broadcast over steps."""
    return vector if vector.ndim == 1 else vector[:, None, :]


def _ffn(f, gain, bias, w_up, w_down, residual) -> FfnCache:
    """One head's layer norm and rectified two-layer map on checked input; the branch output
    is added to the normalized vector (residual="normalized", the reference) or to f ("input")."""
    h, xhat, inv = _layer_norm_fwd(f, _over_steps(gain), _over_steps(bias))
    u = h @ w_up
    r = np.maximum(u, 0.0)
    return FfnCache(h, xhat, inv, u, r, (h if residual == "normalized" else f) + r @ w_down)


def _run_heads(f_dec, params: HeadParams, residual: str):
    """Checked features through every head: (logits, head -> FfnCache)."""
    if not np.all(np.isfinite(f_dec)):
        raise NonFiniteInput("non-finite values in FFN input")
    if residual not in ("normalized", "input"):
        raise ValueError(f"unknown residual mode: {residual!r}")
    if f_dec.shape[-1] != params.config.dim:
        raise ShapeMismatch(f"feature dim {f_dec.shape[-1]} != model dim {params.config.dim}")
    logits, layers = {}, {}
    for head in HEADS:
        layers[head] = _ffn(f_dec, params[f"{head}.ln_gain"], params[f"{head}.ln_bias"],
                            params[f"{head}.w_up"], params[f"{head}.w_down"], residual)
        logits[head] = layers[head].out @ params[f"{head}.w_out"] + _over_steps(params[f"{head}.b_out"])
    return logits, layers


def _embed(ids, params: HeadParams):
    """Checked (n, 3) ids, their concatenated embeddings and the fused features."""
    ids = np.atleast_2d(np.asarray(ids, int))
    if ids.shape[-1] != 3:
        raise ShapeMismatch(f"expected id triples, got shape {ids.shape}")
    for column, head in enumerate(HEADS):
        v = params.config.vocab_sizes[head]
        bad = ids[:, column][(ids[:, column] < 0) | (ids[:, column] >= v)]
        if bad.size:
            raise IdOutOfRange(head, int(bad[0]), v)
    rows = [np.take(params[f"embed.{head}"], ids[:, column], axis=-2) for column, head in enumerate(HEADS)]
    x_cat = np.concatenate(np.broadcast_arrays(*rows), axis=-1)
    return ids, x_cat, x_cat @ params["fuse"]


def forward(params: HeadParams, prev_ids, residual: str = "normalized"):
    """Per-head logits, and the cache sequence_grads reads: (checked (n, 3) ids,
    concatenated embeddings, head -> FfnCache).

    Logits are (n, V) per head, or (B, n, V) when any parameter array carries a
    leading batch axis of B variants; the unbatched arrays broadcast over it.
    """
    ids, x_cat, f_dec = _embed(prev_ids, params)
    logits, layers = _run_heads(f_dec, params, residual)
    return logits, (ids, x_cat, layers)


def softmax(logits):
    logits = np.asarray(logits, float)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def composite_loss(logits: dict[str, np.ndarray], targets: dict[str, np.ndarray]):
    """Sum of the three per-head mean cross entropies: (total, per-head dict).

    Logits of shape (B, n, V) give a total and per-head losses of shape (B,).
    """
    lengths = {head: len(np.atleast_1d(targets[head])) for head in HEADS}
    if len(set(lengths.values())) != 1:
        raise LengthMismatch(f"target lengths differ across heads: {lengths}")
    per_head = {}
    for head in HEADS:
        z = np.atleast_2d(np.asarray(logits[head], float))
        y = np.atleast_1d(np.asarray(targets[head], int))
        if z.shape[-2] != y.shape[0]:
            raise LengthMismatch(f"{head}: {z.shape[-2]} logit rows vs {y.shape[0]} targets")
        probs = softmax(z)
        per_head[head] = -np.log(probs[..., np.arange(len(y)), y]).sum(axis=-1) / len(y)
    total = per_head["init"] + per_head["rhyme"] + per_head["tone"]
    return total, per_head


# ---------------------------------------------------------------------------
# End-to-end loss and analytic gradients
# ---------------------------------------------------------------------------

def sequence_loss(params: HeadParams, prev_ids, targets, residual: str = "normalized"):
    """Composite loss of the full pipeline: embed previous ids, run the heads.

    With batched parameter arrays (see forward) the total and per-head losses
    hold one value per variant.
    """
    return composite_loss(forward(params, prev_ids, residual)[0], targets)


def sequence_grads(params: HeadParams, prev_ids, targets, residual: str = "normalized"):
    """Loss plus analytic gradients for every parameter array.

    Returns (total, per_head, grads) with grads keyed like params.arrays.
    """
    logits, (ids, x_cat, layers) = forward(params, prev_ids, residual)
    total, per_head = composite_loss(logits, targets)
    n, d = ids.shape[0], params.config.dim
    grads = {name: np.zeros_like(array) for name, array in params.arrays.items()}
    df = np.zeros((n, d))
    for head in HEADS:
        h_norm, xhat, inv, u, r, out = layers[head]
        y = np.atleast_1d(np.asarray(targets[head], int))
        dz = softmax(logits[head])
        dz[np.arange(n), y] -= 1.0
        dz /= n
        grads[f"{head}.b_out"] += dz.sum(axis=0)
        grads[f"{head}.w_out"] += out.T @ dz
        dout = dz @ params[f"{head}.w_out"].T
        dr = dout @ params[f"{head}.w_down"].T
        grads[f"{head}.w_down"] += r.T @ dout
        du = dr * (u > 0.0)
        grads[f"{head}.w_up"] += h_norm.T @ du
        dh = du @ params[f"{head}.w_up"].T
        if residual == "normalized":
            dh = dh + dout
        dx_norm, dgain, dbias = _layer_norm_bwd(dh, params[f"{head}.ln_gain"], xhat, inv)
        grads[f"{head}.ln_gain"] += dgain
        grads[f"{head}.ln_bias"] += dbias
        df += dx_norm
        if residual == "input":
            df += dout
    grads["fuse"] += x_cat.T @ df
    dx_cat = df @ params["fuse"].T
    for column, head in enumerate(HEADS):
        np.add.at(grads[f"embed.{head}"], ids[:, column], dx_cat[:, column * d:(column + 1) * d])
    return total, per_head, grads


def finite_difference_grads(params: HeadParams, prev_ids, targets,
                            residual: str = "normalized", step: float = 1e-5):
    """Central differences of the composite loss for every parameter entry.

    For each array the P copies with one entry raised by step and the P with
    it lowered are stacked on a leading batch axis and go through one
    sequence_loss call, split into chunks whose copies and forward activations
    hold at most FD_CHUNK_FLOATS floats.  The caller's arrays are read, never
    written.
    """
    arrays = params.arrays
    # a variant's forward activations per step, about: embeddings and fused
    # features, three FFN caches, and logits with their softmax temporaries
    width = 25 * params.config.dim + 4 * sum(params.config.vocab_sizes.values())
    steps = len(np.atleast_2d(prev_ids))
    grads = {}
    for name, array in arrays.items():
        flat = array.reshape(-1)
        grad = np.empty(flat.size)
        per_chunk = max(1, FD_CHUNK_FLOATS // (2 * (flat.size + steps * width)))
        for start in range(0, flat.size, per_chunk):
            index = np.arange(start, min(start + per_chunk, flat.size))
            rows = np.arange(len(index))
            batch = np.tile(flat, (2, len(index), 1))  # row i of [0] raises entry index[i], of [1] lowers it
            batch[0, rows, index] += step
            batch[1, rows, index] -= step
            variants = HeadParams(params.config, {**arrays, name: batch.reshape(-1, *array.shape)})
            up, down = sequence_loss(variants, prev_ids, targets, residual)[0].reshape(2, -1)
            grad[index] = (up - down) / (2.0 * step)
        grads[name] = grad.reshape(array.shape)
    return grads


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------

#: absolute floor in the relative-error denominator; keeps the comparison
#: meaningful where the true gradient is at the finite-difference noise floor
REL_ERR_FLOOR = 1e-6


@dataclass(frozen=True)
class GradCheckReport:
    rows: tuple[tuple[str, float], ...]  # (parameter name, max relative error)
    tolerance: float

    @property
    def max_rel_err(self) -> float:
        return max((err for _, err in self.rows), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance

    @property
    def failures(self) -> list[str]:
        return [name for name, err in self.rows if err >= self.tolerance]

    def as_dict(self) -> dict:
        return {
            "max_rel_err": self.max_rel_err,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "failures": self.failures,
            "rows": {name: err for name, err in self.rows},
        }


def grad_check(params: HeadParams, prev_ids, targets, residual: str = "normalized",
               step: float = 1e-5, tolerance: float = 1e-4,
               corrupt: tuple[str, int, float] | None = None) -> GradCheckReport:
    """Analytic vs central-difference gradients, per parameter array.

    ``corrupt`` injects an offset into one analytic partial (name, flat index,
    delta) and exists as a negative control: the report must then fail.
    """
    _, _, analytic = sequence_grads(params, prev_ids, targets, residual)
    if corrupt is not None:
        name, index, delta = corrupt
        analytic[name].reshape(-1)[index] += delta
    numeric = finite_difference_grads(params, prev_ids, targets, residual, step)
    rows = []
    for name in params.arrays:
        a, n = analytic[name], numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), REL_ERR_FLOOR)
        rows.append((name, float((np.abs(a - n) / denom).max(initial=0.0))))
    return GradCheckReport(rows=tuple(rows), tolerance=tolerance)


#: minimum distance of any rectifier pre-activation from its kink; central
#: differences are only meaningful away from the non-differentiable point,
#: and a 1e-5 parameter step moves pre-activations by well under 1e-6 here
KINK_MARGIN = 1e-4


def toy_batch(seed: int, residual: str = "normalized"):
    """A seeded toy configuration (params, ids, targets) away from relu kinks.

    Seeds whose pre-activations land within KINK_MARGIN of zero are skipped
    deterministically by probing seed + k*100003.
    """
    for attempt in range(50):
        probe = seed + attempt * 100003
        rng = np.random.default_rng(probe)
        config = HeadConfig(
            dim=int(rng.integers(2, 7)),
            v_init=int(rng.integers(3, 9)),
            v_rhyme=int(rng.integers(3, 9)),
        )
        params = init_params(config, seed=probe + 1)
        n = int(rng.integers(1, 5))
        ids = np.column_stack([rng.integers(0, v, size=n) for v in
                               (config.v_init, config.v_rhyme, config.v_tone)])
        targets = {h: rng.integers(0, v, size=n) for h, v in config.vocab_sizes.items()}
        _, (_, _, layers) = forward(params, ids, residual)
        margin = min(float(np.abs(layers[h].u).min()) for h in HEADS)
        if margin > KINK_MARGIN:
            return params, ids, targets
    raise RuntimeError(f"no kink-free configuration found from seed {seed}")


def run_grad_suite(n_configs: int = 100, base_seed: int = 0, step: float = 1e-5,
                   tolerance: float = 1e-4, residual: str = "normalized") -> dict:
    """Gradient verification over seeded toy configurations; JSON-friendly summary."""
    worst = 0.0
    worst_config = None
    failures = []
    for k in range(n_configs):
        params, ids, targets = toy_batch(base_seed + k, residual)
        report = grad_check(params, ids, targets, residual, step, tolerance)
        if report.max_rel_err > worst:
            worst, worst_config = report.max_rel_err, k
        if not report.passed:
            failures.append({"config": k, "parameters": report.failures})
    return {
        "configs": n_configs,
        "residual": residual,
        "step": step,
        "tolerance": tolerance,
        "max_rel_err": worst,
        "worst_config": worst_config,
        "failures": failures,
        "passed": not failures,
    }


# ---------------------------------------------------------------------------
# Parameter dump/load: flat text, name / shape / row-major values
# ---------------------------------------------------------------------------

_HEADER = "# vietphon head parameters v1"


def write_params(params: HeadParams, fh) -> None:
    """The parameter file text, header then one array a line, to an open text file."""
    cfg = params.config
    fh.write(f"{_HEADER} dim={cfg.dim} "
             f"v_init={cfg.v_init} v_rhyme={cfg.v_rhyme} v_tone={cfg.v_tone}\n")
    for name, array in params.arrays.items():
        shape = ",".join(str(s) for s in array.shape)
        values = " ".join(repr(float(v)) for v in array.reshape(-1))
        fh.write(f"{name}\t{shape}\t{values}\n")


def load_params(lines) -> HeadParams:
    """HeadParams from the list of lines of a parameter file (see write_params), checked by _assemble.
    A line that does not read, or whose array name or shape the header's config does not
    have, raises MalformedParamLine; the header gives each HeadConfig field once."""
    names = [f.name for f in dataclasses.fields(HeadConfig)]
    line_number, array_name, fields, arrays = 1, "", {}, {}
    try:
        words = lines[0].split() if lines else []
        if words[:5] != _HEADER.split():
            raise ValueError("not a head parameter file")
        for name, _, value in (word.partition("=") for word in words[5:]):
            if name not in names:
                raise ValueError(f"unknown header field {name!r}")
            if name in fields:
                raise ValueError(f"header field {name!r} given twice")
            if not value.removeprefix("-").isdecimal():
                raise ValueError(f"header field {name!r}: expected an integer, got {value!r}")
            fields[name] = int(value)
        for name in names:
            if name not in fields:
                raise ValueError(f"header field {name!r} missing")
        shapes = _param_shapes(HeadConfig(**fields))
        for line_number, line in enumerate(lines[1:], start=2):
            array_name, *rest = line.split("\t")
            if len(rest) != 2:
                raise ValueError(f"expected 3 tab-separated fields, got {len(rest) + 1}")
            if array_name not in shapes:
                raise ValueError("unknown parameter array")
            if array_name in arrays:
                raise ValueError("given twice")
            shape, values = rest
            if not all(n.isdecimal() for n in shape.split(",")):
                raise ValueError(f"shape {shape!r} is not comma-separated integers")
            array = np.array([float(v) for v in values.split()])
            if not np.all(np.isfinite(array)):
                raise ValueError("non-finite values")
            arrays[array_name] = array.reshape(tuple(int(n) for n in shape.split(",")))
            if arrays[array_name].shape != shapes[array_name]:
                raise ShapeMismatch(f"expected {shapes[array_name]}, got {arrays[array_name].shape}")
    except ValueError as exc:
        raise MalformedParamLine(line_number, f"{array_name}: {exc}" if array_name else str(exc)) from None
    return _assemble(HeadConfig(**fields), arrays)
