"""Scaled block entropies, TGREED/SGREED indices, and the pooled feature vector."""

import hashlib
import json
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import ggd
from .bandpass import build_packet_filters, check_bank_fits, spatial_ms, temporal_filter
from .video import downsample, kept_indices

# Part of every config fingerprint. Bump it in any change that moves feature
# values by more than 1e-9 relative, so caches and models written before it
# are rejected instead of silently reused.
FEATURE_VERSION = 1


@dataclass(frozen=True)
class GreedConfig:
    wavelet: str = "bior2.2"
    scales: tuple = (4, 5)
    noise_var: float = 0.1
    patch_size: int = 5
    levels: int = 3

    def fingerprint(self):
        key = f"{FEATURE_VERSION}|{self.wavelet}|{','.join(map(str, self.scales))}|{self.noise_var!r}|{self.patch_size}|{self.levels}"
        return hashlib.sha256(key.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class EntropyField:
    """Per-frame, per-patch scaled entropies for one subband of one video."""

    values: np.ndarray       # (T, P)
    frame_betas: np.ndarray  # (T,)


@dataclass(frozen=True)
class GreedFeatures:
    """Pooled feature vector: per scale, SGREED then one TGREED per subband."""

    values: np.ndarray
    config: GreedConfig = field(default_factory=GreedConfig)


def _patch_variances(frames, patch):
    rows, cols = frames.shape[1] // patch, frames.shape[2] // patch
    blocks = frames[:, :rows * patch, :cols * patch].reshape(-1, rows, patch, cols, patch)
    mean = blocks.mean(axis=(2, 4))
    sq = (blocks * blocks).mean(axis=(2, 4))
    return (sq - mean * mean).reshape(frames.shape[0], rows * cols)


def block_entropies(frames, noise_var, patch_size=GreedConfig.patch_size):
    """Scaled entropies of band-pass coefficient frames.

    Per frame, the GGD shape is estimated once from the whole-frame noisy
    kurtosis; the scale (and hence the entropy) is computed per
    non-overlapping patch from the noise-lifted patch variance. Each patch
    entropy is premultiplied by its log-variance scaling factor.
    """
    if patch_size < 1:
        raise ValueError(f"patch size must be >= 1, got {patch_size}")
    frames = np.asarray(frames, dtype=np.float64)
    if frames.shape[1] < patch_size or frames.shape[2] < patch_size:
        raise ValueError(f"frames smaller than one {patch_size}x{patch_size} patch")

    centered = frames - frames.mean(axis=(1, 2), keepdims=True)
    sq = centered * centered
    m2 = sq.mean(axis=(1, 2))
    m4 = (sq * sq).mean(axis=(1, 2))  # not centered ** 4: pow is 7x slower

    # The bisection's 1e-6 stopping rule makes beta depend on exactly how
    # each midpoint is evaluated, so it stays the scalar per-frame loop.
    betas = np.empty(frames.shape[0])
    for t in range(frames.shape[0]):
        kurt = m4[t] / (m2[t] * m2[t]) if m2[t] > 0 else 0.0
        moments = ggd.noisy_moments(m2[t], kurt, noise_var)
        betas[t] = ggd.beta_from_kurtosis(moments.kurtosis)
    scale = np.array([ggd.alpha_from_sigma_beta(1.0, b) for b in betas])
    h_unit = np.array([ggd.ggd_entropy(1.0, b) for b in betas])

    var_p = _patch_variances(frames, patch_size)
    sigma = np.sqrt(var_p + noise_var)
    alpha = sigma * scale[:, None]
    # h(alpha, beta) = h(1, beta) + log(alpha)
    h = h_unit[:, None] + np.log(alpha)
    gamma = np.log1p(var_p + noise_var)
    return EntropyField(gamma * h, betas)


def average_reference_entropies(ref_field, rate_ratio, n_out=None):
    """Average reference entropies over the cells of the frame-rate alignment.

    Output frame i averages reference frames [kept[i], kept[i + 1]) with
    kept = kept_indices(n_ref, rate_ratio, 1), i.e. [floor(i*F), floor((i+1)*F))
    cut at n_ref; F = 1 is the identity.
    """
    ratio = Fraction(rate_ratio)
    if ratio < 1:
        raise ValueError(f"rate ratio must be >= 1, got {rate_ratio}")
    n_ref = ref_field.values.shape[0]
    if n_out is None:
        n_out = int(n_ref / ratio)
    edges = (kept_indices(n_ref, ratio, 1) + [n_ref])[:n_out + 1]
    if len(edges) <= n_out:
        raise ValueError(f"empty averaging cell at output frame {len(edges) - 1}")
    # reduceat's last cell runs to the end of its input, so cut that at edges[-1].
    starts, counts = edges[:-1], np.diff(edges)
    values = np.add.reduceat(ref_field.values[:edges[-1]], starts) / counts[:, None]
    betas = np.add.reduceat(ref_field.frame_betas[:edges[-1]], starts) / counts
    return EntropyField(values, betas)


def tgreed_frame(eps_ref_avg, eps_pr, eps_dist):
    """Temporal entropic-difference index per frame.

    Takes one frame's patch entropies (P,) or a stack of frames (n, P) and
    returns a float or one value per frame.
    """
    eps_ref_avg = np.asarray(eps_ref_avg, dtype=np.float64)
    eps_pr = np.asarray(eps_pr, dtype=np.float64)
    eps_dist = np.asarray(eps_dist, dtype=np.float64)
    if not (eps_ref_avg.shape == eps_pr.shape == eps_dist.shape):
        raise ValueError("entropy vectors must have equal length")
    term = (1.0 + np.abs(eps_dist - eps_pr)) * (eps_ref_avg + 1.0) / (eps_pr + 1.0) - 1.0
    return np.mean(np.abs(term), axis=-1)


def sgreed_frame(theta_ref, theta_dist):
    """Spatial entropic-difference index per frame; (P,) or (n, P) as tgreed_frame."""
    theta_ref = np.asarray(theta_ref, dtype=np.float64)
    theta_dist = np.asarray(theta_dist, dtype=np.float64)
    if theta_ref.shape != theta_dist.shape:
        raise ValueError("entropy vectors must have equal length")
    return np.mean(np.abs(theta_dist - theta_ref), axis=-1)


def compute_features(ref, dist, config=None, jobs=1):
    """Run the full pipeline on a reference/distorted pair.

    Per scale, computes the pooled spatial index and one pooled temporal
    index per subband, concatenated in scale order with the spatial value
    first. Each video is pooled once from full resolution; the pseudo
    reference is the frame-dropped pooled reference (frame dropping and
    spatial pooling commute). The reference's pooled frames and entropy
    fields are kept with the reference object, so later calls with the same
    reference reuse them; its frames must not change after it was built.
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
    # Reference-side work: scale s -> pooled reference; (rate ratio, s, band)
    # -> entropies of the reference dropped to that rate (band None: spatial).
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

    def index(task):
        """SGREED at scale s when k is None, else TGREED of subband k."""
        s, k = task
        r, d = pyramids[s]

        def entropies(frames):
            coeffs = (spatial_ms(frames) if k is None
                      else temporal_filter(frames, bank.filters[k]).coeffs)
            return block_entropies(coeffs, cfg.noise_var, cfg.patch_size)

        def reference_entropies(rate):
            key = (rate, s, k)
            if key not in state:
                state[key] = entropies(r if rate == 1 else r[kept])
            return state[key]

        eps_r, eps_d = reference_entropies(1), entropies(d)
        eps_r_avg = average_reference_entropies(eps_r, ratio, n_out=n).values
        if k is None:
            return float(np.mean(sgreed_frame(eps_r_avg, eps_d.values[:n])))
        eps_p = reference_entropies(ratio)
        return float(np.mean(tgreed_frame(eps_r_avg, eps_p.values[:n], eps_d.values[:n])))

    tasks = [(s, k) for s in cfg.scales for k in (None, *range(bank.num_bands))]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            values = list(pool.map(index, tasks))
    else:
        values = list(map(index, tasks))
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
    skipped with a warning.
    """
    out = {}
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
            if not (isinstance(values, list) and values
                    and all(type(v) in (int, float) for v in values)):
                raise ValueError(f"{path}:{line_no}: cache record's values must be a "
                                 "non-empty list of numbers")
            if fingerprint is not None and rec["fingerprint"] != fingerprint:
                continue
            out[(rec["ref"], rec["dist"])] = {"values": np.array(values)}
    return out
