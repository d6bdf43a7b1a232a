"""adapterkit: train, package, share, and run bottleneck adapters.

A compact transformer encoder hosts small residual bottleneck modules that
train with the backbone frozen, extract into portable binary packages, and
circulate through a metadata-driven hub index.
"""

from .adapters import (AdapterConfig, AdapterLayerWeights, adapter_forward,
                       count_adapter_params, count_point_params,
                       init_layer_weights, preset, resolve_bottleneck,
                       resolve_config)
from .autodiff import (Tape, Tensor, activation, backward,
                       finite_difference_check, tensor)
from .backbone import (BackboneWeights, ModelConfig, count_backbone_params,
                       encode, init_backbone)
from .errors import (AdapterKitError, AmbiguousQueryError, ChecksumError,
                     CompatibilityError, GradientError, HubLookupError,
                     MetadataError, NonFiniteError, PackageFormatError,
                     RegistryError, ShapeMismatchError, TransportError,
                     UnknownAdapterError)
from .hub import (HubEntry, build_index, explore_tree, fetch, ingest_metadata,
                  install_from_hub, parse_index, resolve)
from .manager import AdapterEntry, AdapterModel, PredictionHead, new_adapter_entry
from .package_io import (load_adapter_package, load_backbone_checkpoint,
                         pack_archive, read_archive, save_adapter_package,
                         save_backbone_checkpoint, verify_package)
from .training import (Adam, ToyTask, TrainConfig, accuracy, evaluate,
                       f1_score, generate_toy_task, run_training, spearman,
                       toggle_parity_token)

__version__ = "0.1.0"

__all__ = [
    "AdapterConfig", "AdapterLayerWeights", "adapter_forward",
    "count_adapter_params", "count_point_params", "init_layer_weights",
    "preset", "resolve_bottleneck", "resolve_config",
    "Tape", "Tensor", "activation", "backward",
    "finite_difference_check", "tensor",
    "BackboneWeights", "ModelConfig", "count_backbone_params", "encode",
    "init_backbone",
    "AdapterKitError", "AmbiguousQueryError", "ChecksumError",
    "CompatibilityError", "GradientError", "HubLookupError", "MetadataError",
    "NonFiniteError", "PackageFormatError", "RegistryError",
    "ShapeMismatchError", "TransportError", "UnknownAdapterError",
    "HubEntry", "build_index", "explore_tree", "fetch", "ingest_metadata",
    "install_from_hub", "parse_index", "resolve",
    "AdapterEntry", "AdapterModel", "PredictionHead", "new_adapter_entry",
    "load_adapter_package", "load_backbone_checkpoint", "pack_archive",
    "read_archive", "save_adapter_package", "save_backbone_checkpoint",
    "verify_package",
    "Adam", "ToyTask", "TrainConfig", "accuracy", "evaluate", "f1_score",
    "generate_toy_task", "run_training", "spearman", "toggle_parity_token",
    "__version__",
]
