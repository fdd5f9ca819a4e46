"""Scaled block entropies, TGREED/SGREED indices, and the pooled feature vector."""

import hashlib
import json
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import ggd
from .bandpass import (_analysis_pair, build_packet_filters, check_bank_fits, spatial_ms,
                       temporal_filter)
from .video import check_scale, downsample, kept_indices

# Part of every config fingerprint. Bump it in any change that moves feature
# values by more than 1e-9 relative, so caches and models written before it
# are rejected instead of silently reused.
FEATURE_VERSION = 1


def _check_patch_size(patch_size):
    if patch_size < 1:
        raise ValueError(f"patch size must be >= 1, got {patch_size}")


@dataclass(frozen=True)
class GreedConfig:
    wavelet: str = "bior2.2"
    scales: tuple = (4, 5)
    noise_var: float = 0.1
    patch_size: int = 5
    levels: int = 3

    def __post_init__(self):
        # The same checks as the functions that use each field, made before
        # any video is decoded.
        ggd.check_noise_var(self.noise_var)
        _check_patch_size(self.patch_size)
        _analysis_pair(self.wavelet, self.levels)
        if not self.scales:
            raise ValueError("scales must not be empty")
        check_scale(min(self.scales))

    def fingerprint(self):
        key = f"{FEATURE_VERSION}|{self.wavelet}|{','.join(map(str, self.scales))}|{self.noise_var!r}|{self.patch_size}|{self.levels}"
        return hashlib.sha256(key.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class EntropyField:
    """Per-frame, per-patch scaled entropies of one video, per subband if stacked."""

    values: np.ndarray       # (..., T, P)
    frame_betas: np.ndarray  # (..., T)


@dataclass(frozen=True)
class GreedFeatures:
    """Pooled feature vector: per scale, SGREED then one TGREED per subband."""

    values: np.ndarray
    config: GreedConfig = field(default_factory=GreedConfig)


def _patch_variances(frames, patch):
    """Variance of each non-overlapping patch, (..., T, H, W) to (..., T, P).

    This is the mean(axis=(2, 4)) of the (-1, rows, patch, cols, patch)
    reshape, squares included. Below patch 8, on frames at least two
    patches wide, that mean adds each patch row in order and then the row
    sums, and the same floats come from one patch-major copy of it,
    (patch, patch, -1, rows, cols): numpy sums a contiguous array over a
    leading axis in order, one whole plane (one position in the patch of
    every patch) at a time. The copy is summed over its second axis and
    then its first, squared in place and summed again.
    """
    rows, cols = frames.shape[-2] // patch, frames.shape[-1] // patch
    blocks = frames[..., :rows * patch, :cols * patch].reshape(-1, rows, patch, cols, patch)
    if patch >= 8 or cols == 1:
        mean, sq = blocks.mean(axis=(2, 4)), np.square(blocks).mean(axis=(2, 4))
    else:
        planes = np.moveaxis(blocks, (2, 4), (0, 1)).copy()
        mean = planes.sum(axis=1).sum(axis=0) / patch**2
        sq = np.square(planes, out=planes).sum(axis=1).sum(axis=0) / patch**2
    sq -= np.square(mean, out=mean)
    return sq.reshape(*frames.shape[:-2], rows * cols)


def _frame_statistics(frames, patch_size):
    """Patch variances (..., T, P), second moments and kurtoses (..., T) of frames."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.shape[-2] < patch_size or frames.shape[-1] < patch_size:
        raise ValueError(f"frames smaller than one {patch_size}x{patch_size} patch")
    var_p = _patch_variances(frames, patch_size)
    # Taken after the patch variances and squared in place: at most two copies of a stack.
    sq = frames - frames.mean(axis=(-2, -1), keepdims=True)
    m2 = np.square(sq, out=sq).mean(axis=(-2, -1))
    m4 = np.square(sq, out=sq).mean(axis=(-2, -1))  # not centered ** 4: pow is 7x slower
    return var_p, m2, np.divide(m4, m2 * m2, out=np.zeros_like(m2), where=m2 > 0)


def block_entropies(frames, noise_var, patch_size=GreedConfig.patch_size):
    """Scaled entropies (..., T, P) and frame betas (..., T) of (..., T, H, W) frames.

    Per frame, the GGD shape is estimated once from the whole-frame noisy
    kurtosis; the scale (and hence the entropy) is computed per
    non-overlapping patch from the noise-lifted patch variance. Each patch
    entropy is premultiplied by its log-variance scaling factor. A stack of
    B videos gives what B separate calls give.

    frames may also be an iterator of stacks, each of its own shape: then
    the result is a list of one EntropyField per stack, what separate calls
    give. Each stack is reduced to its frame statistics and released before
    the next is drawn, and all their frames share one bisection.
    """
    ggd.check_noise_var(noise_var)
    _check_patch_size(patch_size)
    if not hasattr(frames, "__next__"):  # one array-like, not an iterator of them
        return block_entropies(iter([frames]), noise_var, patch_size)[0]
    stats = list(map(lambda stack: _frame_statistics(stack, patch_size), frames))
    if not stats:
        return []
    m2, kurt = (np.concatenate([s[i].ravel() for s in stats]) for i in (1, 2))

    def per_frame(fn, *arrays):
        """fn of each frame's values as Python floats, as an array."""
        return np.array(list(map(fn, *(a.tolist() for a in arrays))), dtype=np.float64)

    # One bisection for all the stacks' frames, bit-identical to the scalar
    # call per frame: every lane starts from the same interval, and each
    # midpoint's kurtosis, the noise channel's square and the GGD constants
    # stay libm pow, math.gamma and math.log per value, which numpy's vector
    # square, pow and log do not match in a fraction of values.
    kurt = per_frame(lambda var, k: ggd.noisy_moments(var, k, noise_var)[1], m2, kurt)
    betas = ggd.beta_from_kurtosis(kurt)
    scale = per_frame(lambda beta: ggd.alpha_from_sigma_beta(1.0, beta), betas)
    h_unit = per_frame(lambda beta: ggd.ggd_entropy(1.0, beta), betas)

    fields, end = [], 0
    for var_p, frame_m2, _ in stats:
        start, end = end, end + frame_m2.size
        lifted = var_p + noise_var
        alpha = np.sqrt(lifted) * scale[start:end].reshape(frame_m2.shape)[..., None]
        # h(alpha, beta) = h(1, beta) + log(alpha)
        h = h_unit[start:end].reshape(frame_m2.shape)[..., None] + np.log(alpha)
        fields.append(EntropyField(np.log1p(lifted) * h,
                                   betas[start:end].reshape(frame_m2.shape)))
    return fields


def average_reference_entropies(ref_field, rate_ratio, n_out):
    """Average reference entropies over the first n_out cells of the frame-rate alignment.

    Output frame i averages reference frames [kept[i], kept[i + 1]) with
    kept = kept_indices(n_ref, rate_ratio, 1), i.e. [floor(i*F), floor((i+1)*F))
    cut at n_ref; F = 1 is the identity. Frames are axis -2 of values, -1 of betas.
    """
    ratio = Fraction(rate_ratio)
    if ratio < 1:
        raise ValueError(f"rate ratio must be >= 1, got {rate_ratio}")
    n_ref = ref_field.values.shape[-2]
    edges = (kept_indices(n_ref, ratio, 1) + [n_ref])[:n_out + 1]
    if len(edges) <= n_out:
        raise ValueError(f"empty averaging cell at output frame {len(edges) - 1}")
    # reduceat's last cell runs to the end of its input, so cut that at edges[-1].
    starts, counts = edges[:-1], np.diff(edges)
    values = np.add.reduceat(ref_field.values[..., :edges[-1], :], starts, axis=-2)
    betas = np.add.reduceat(ref_field.frame_betas[..., :edges[-1]], starts, axis=-1)
    return EntropyField(values / counts[:, None], betas / counts)


def _entropy_vectors(*vectors):
    """The vectors as float64 arrays, which must all have one shape."""
    arrays = [np.asarray(v, dtype=np.float64) for v in vectors]
    if len({a.shape for a in arrays}) > 1:
        raise ValueError("entropy vectors must have equal length")
    return arrays


def tgreed_frame(eps_ref_avg, eps_pr, eps_dist):
    """Temporal entropic-difference index per frame, from (..., P) patch entropies to (...)."""
    eps_ref_avg, eps_pr, eps_dist = _entropy_vectors(eps_ref_avg, eps_pr, eps_dist)
    term = (1.0 + np.abs(eps_dist - eps_pr)) * (eps_ref_avg + 1.0) / (eps_pr + 1.0) - 1.0
    return np.mean(np.abs(term), axis=-1)


def sgreed_frame(theta_ref, theta_dist):
    """Spatial entropic-difference index per frame; (..., P) to (...) as tgreed_frame."""
    theta_ref, theta_dist = _entropy_vectors(theta_ref, theta_dist)
    return np.mean(np.abs(theta_dist - theta_ref), axis=-1)


def compute_features(ref, dist, config=None, jobs=1):
    """Run the full pipeline on a reference/distorted pair.

    Per scale, computes the pooled spatial index and one pooled temporal
    index per subband, concatenated in scale order with the spatial value
    first. Each video is pooled to the lowest scale exponent from full
    resolution and to each higher one from the scale before it; the pseudo
    reference is the frame-dropped pooled reference (frame dropping and
    spatial pooling commute). The reference's pooled frames and entropy
    tables are kept with the reference object, so later calls with the same
    reference reuse them, but only when no array behind its frames can be
    written: a caller that turns writing back on in its own array and
    writes gets the features of the old frames.

    The call runs on the calling thread, with one β bisection for the
    frames of all its tables. jobs must be >= 1 and does nothing else; it
    stays only because perfbench/ passes it.
    """
    cfg = config or GreedConfig()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if (ref.height, ref.width) != (dist.height, dist.width):
        raise ValueError(
            f"resolution mismatch: reference {ref.width}x{ref.height}, "
            f"distorted {dist.width}x{dist.height}")
    kept = kept_indices(ref.num_frames, ref.fps, dist.fps)

    check_bank_fits(cfg.wavelet, cfg.levels, min(len(kept), dist.num_frames))
    bank = build_packet_filters(cfg.wavelet, cfg.levels)

    ratio = ref.fps / dist.fps
    n = min(dist.num_frames, int(ref.num_frames / ratio))  # frames compared
    # Reference-side work: scale s -> pooled reference; (rate ratio, s) -> entropy
    # table of the reference dropped to that rate (a spatial row at rate 1 only).
    state = ref._memo_for(cfg.fingerprint())

    # Incremental pyramid: s poolings then the difference to the next scale.
    pyramids = {}  # scale -> (ref, dist) frames at that scale
    r, d, prev_s = ref, dist, 0
    for s in sorted(cfg.scales):
        if s not in state:
            state[s] = downsample(r, s - prev_s)
        r, d = state[s], downsample(d, s - prev_s)
        prev_s = s
        pyramids[s] = (r.frames, d.frames)

    taps = np.array(bank.filters)
    # Per scale, the reference's missing tables, keyed (rate, s) as in the
    # memo, then the distorted video's, keyed (None, s).
    keys = []
    for s in dict.fromkeys(cfg.scales):
        keys += [(rate, s) for rate in dict.fromkeys((1, ratio)) if (rate, s) not in state]
        keys.append((None, s))

    def table(key):
        """spatial_ms(frames), except for the pseudo reference, then each band's
        coefficients, in one stack."""
        rate, s = key
        r, d = pyramids[s]
        frames, spatial = (d, True) if rate is None else (r, True) if rate == 1 else (r[kept], False)
        stack = np.empty((spatial + len(taps), *frames.shape))
        if spatial:
            stack[0] = spatial_ms(frames)
        temporal_filter(frames, taps, out=stack[spatial:])
        return stack

    # map builds each table only as block_entropies draws it.
    fields = dict(zip(keys, block_entropies(map(table, keys), cfg.noise_var, cfg.patch_size)))
    state.update({key: f for key, f in fields.items() if key[0] is not None})
    values = []
    for s in cfg.scales:
        eps_d = fields[None, s].values[:, :n]
        eps_r_avg = average_reference_entropies(state[1, s], ratio, n_out=n).values
        eps_p = state[ratio, s].values[-len(taps):, :n]
        values += [np.mean(sgreed_frame(eps_r_avg[0], eps_d[0])),
                   *np.mean(tgreed_frame(eps_r_avg[1:], eps_p, eps_d[1:]), axis=-1)]
    return GreedFeatures(np.array(values), cfg)


# ---------------------------------------------------------------------------
# Feature cache: one JSON record per line, bit-exact float round trip.

def append_cache_record(path, ref_id, dist_id, content_id, feats):
    record = {
        "fingerprint": feats.config.fingerprint(),
        "ref": ref_id,
        "dist": dist_id,
        "content": content_id,
        "values": list(map(float, feats.values)),
    }
    with open(path, "a") as f:
        f.write(json.dumps(record) + "\n")


def read_cache(path, fingerprint=None):
    """Load cached feature records keyed by (ref, dist).

    A corrupt or incomplete record raises ValueError, except an unterminated
    final line (what a crash inside append_cache_record leaves), which is
    skipped with a warning. Every record kept must have as many values as
    the first.
    """
    out, first = {}, None  # first: (line, number of values) of the first record kept
    with open(path) as f:
        for line_no, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                if not line.endswith("\n"):  # only the final line can lack one
                    warnings.warn(f"{path}:{line_no}: skipping unterminated final "
                                  f"cache record: {e}", stacklevel=2)
                    continue
                raise ValueError(f"{path}:{line_no}: corrupt cache record: {e}") from e
            if not (isinstance(rec, dict)
                    and {"fingerprint", "ref", "dist", "content", "values"} <= rec.keys()):
                raise ValueError(f"{path}:{line_no}: cache record must be an object with "
                                 "fingerprint, ref, dist, content and values")
            if not (isinstance(rec["ref"], str) and isinstance(rec["dist"], str)):
                raise ValueError(f"{path}:{line_no}: cache record's ref and dist must be strings")
            values = rec["values"]
            try:
                # float() overflows on an int beyond float64's range.
                ok = (isinstance(values, list) and values
                      and all(type(v) in (int, float) and -np.inf < float(v) < np.inf
                              for v in values))
            except OverflowError:
                ok = False
            if not ok:
                raise ValueError(f"{path}:{line_no}: cache record's values must be a "
                                 "non-empty list of finite numbers")
            if fingerprint is not None and rec["fingerprint"] != fingerprint:
                continue
            if first is None:
                first = (line_no, len(values))
            elif len(values) != first[1]:
                raise ValueError(f"{path}:{line_no}: cache record has {len(values)} values, "
                                 f"but the record on line {first[0]} has {first[1]}")
            out[(rec["ref"], rec["dist"])] = {"values": np.array(values, dtype=np.float64)}
    return out
