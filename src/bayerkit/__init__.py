"""bayerkit: Bayer pattern unification, pattern-preserving augmentation,
packing, a synthetic mosaic simulator, a pluggable denoising pipeline, and
image quality metrics, all checked against an exact channel-tracking oracle.
"""

from . import baselines
from .augment import (
    AugPlan,
    HFlip,
    Patch,
    Transpose,
    VFlip,
    apply_plan,
    sample_plan,
)
from .denoise import DenoiserSpec, denoise_packed, denoise_pipeline
from .errors import (
    BadDimensions,
    BadFilterParam,
    BayerKitError,
    IllegalTranspose,
    ImageTooSmall,
    InconsistentSpec,
    MissingSidecar,
    OddOffset,
    OutOfBounds,
    ParseError,
    PatchTooLarge,
    ShapeMismatch,
    TooSmall,
    UnknownPattern,
)
from .image import PackedImage, RawImage, RgbImage
from .metrics import MetricReport, PSNR_CAP_DB, metric_report, mse, psnr, ssim
from .packing import pack, unpack
from .patterns import (
    BayerPattern,
    ColorChannel,
    TransformKind,
    channel_at,
    channel_index_grid,
    pattern_at_offset,
    pattern_transform,
    transpose_is_legal,
)
from .rawfile import load_raw, save_raw, write_ppm
from .simulate import (
    NoiseParams,
    add_noise,
    demosaic_bilinear,
    gen_scene,
    mosaic,
)
from .unify import PadSpec, disunify_crop, unify_crop, unify_offsets, unify_pad

__version__ = "0.1.0"
