"""Space-time entropic-difference video quality assessment."""

from .bandpass import FilterBank, SubbandStack, build_packet_filters, spatial_ms, temporal_filter
from .features import (EntropyField, GreedConfig, GreedFeatures,
                       average_reference_entropies, block_entropies,
                       compute_features, sgreed_frame, tgreed_frame)
from .ggd import (BETA_MAX, BETA_MIN, alpha_from_sigma_beta, beta_from_kurtosis,
                  gamma_fn, ggd_entropy, ggd_kurtosis, noisy_moments)
from .svr import SvrModel, grid_search, load_model, predict, save_model, train_svr
from .evaluate import (EvalReport, dump_histogram, krocc, plcc_rmse,
                       run_protocol, srocc, train_model)
from .video import (LumaVideo, PseudoReference, VideoFormatError, downsample,
                    load_raw_yuv, load_y4m, make_pseudo_reference)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
