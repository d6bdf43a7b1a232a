"""Model orchestration: a frozen backbone plus named, swappable adapters.

An :class:`AdapterModel` owns one backbone and a registry of named adapters.
Any subset of adapters can be activated as an ordered stack; training mode
decides which tensors receive gradients. Prediction heads are small linear
layers over the pooled first-position vector, registered by name alongside
the adapters.
"""

import hashlib
import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import backbone as bb
from . import package_io
from .adapters import (AdapterConfig, AdapterLayerWeights, adapter_layout, count_adapter_params,
                       head_layout, init_layer_weights, point_layout, qualify, resolve_config,
                       validate_identity, validate_name)
from .codec import as_count
from .errors import CompatibilityError, ShapeMismatchError, UnknownAdapterError


@dataclass
class AdapterEntry:
    """One registered adapter: identity, architecture, per-layer weights."""

    name: str
    adapter_type: str
    config: AdapterConfig
    weights: list  # per layer: {insertion point: AdapterLayerWeights}
    trained: bool = False

    def named_tensors(self):
        return qualify(len(self.weights), self.config, lambda i, p: self.weights[i][p].named_tensors())


@dataclass
class PredictionHead:
    """Linear classifier over the pooled vector."""

    name: str
    num_labels: int
    w: ad.Tensor
    b: ad.Tensor

    def named_tensors(self):
        yield "w", self.w
        yield "b", self.b


def _check_layout(what, named_tensors, layout):
    """Raise :class:`ShapeMismatchError` unless ``named_tensors`` gives ``layout``'s (name, shape) pairs."""
    shapes = ((name, t.shape) for name, t in named_tensors)
    for got, need in itertools.zip_longest(shapes, layout, fillvalue="nothing"):
        if got != need:
            raise ShapeMismatchError(f"{what} has {got} where this model needs {need}")


def _digest(named_tensors):
    h = hashlib.sha256()
    for name, t in named_tensors:
        h.update(name.encode("utf-8"))
        h.update(str(t.shape).encode("ascii"))
        h.update(np.ascontiguousarray(t.data).tobytes())
    return h.hexdigest()


def new_adapter_entry(model_config, name, adapter_type, config, rng):
    """Build a freshly initialized adapter for a given backbone shape."""
    validate_identity(name, adapter_type)
    weights = []
    for _ in range(model_config.num_layers):
        weights.append({point: init_layer_weights(model_config.hidden_size, config, rng)
                        for point in config.insertion_points()})
    return AdapterEntry(name=name, adapter_type=adapter_type, config=config, weights=weights)


def entry_from_package(pkg, name=None):
    """Reconstruct a registrable adapter from a decoded package."""
    cfg = pkg.adapter_config
    names = [n for n, _ in point_layout(pkg.model_config.hidden_size, cfg)]
    tensors = (ad.tensor(pkg.tensors[n]) for n, _ in adapter_layout(pkg.model_config, cfg))
    # the layout runs point by point, so each point takes the next len(names) tensors
    weights = [{point: AdapterLayerWeights(**dict(zip(names, tensors))) for point in cfg.insertion_points()}
               for _ in range(pkg.model_config.num_layers)]
    return AdapterEntry(name=name or pkg.name, adapter_type=pkg.adapter_type,
                        config=cfg, weights=weights, trained=pkg.trained)


class AdapterModel:
    """A backbone encoder with pluggable adapters and prediction heads.

    The active stack is one tuple of entries, rebound whole and read once per call, so
    :meth:`predict`, :meth:`batch_logits`, :meth:`encode` and :meth:`named_parameters` run
    the stack they saw while one other thread adds, activates or deletes adapters or installs
    heads. Training while another thread uses the model, or two registry writers, is undefined.
    """

    def __init__(self, config, weights=None, seed=0):
        self.config = config
        self._seed_root = np.random.SeedSequence(as_count(seed, "seed"))
        if weights is None:
            weights = bb.init_backbone(config, np.random.default_rng(self._seed_root.spawn(1)[0]))
        _check_layout("backbone", weights.named_tensors(), bb.backbone_layout(config))
        self.weights = weights
        self._adapters = {}
        self._heads = {}
        self._stack = ()
        self.active_head = None

    # -- registry ----------------------------------------------------------

    def add_adapter(self, name, adapter_type="text_task", config="pfeiffer",
                    reduction_factor=None, seed=None):
        """Register a freshly initialized adapter (transparent until trained)."""
        if name in self._adapters:
            raise ValueError(f"adapter {name!r} already registered")
        cfg = resolve_config(config, reduction_factor)
        rng = np.random.default_rng(self._seed_root.spawn(1)[0] if seed is None else as_count(seed, "seed"))
        return self.install_adapter(new_adapter_entry(self.config, name, adapter_type, cfg, rng))

    def install_adapter(self, entry):
        """Register an already-built :class:`AdapterEntry` (e.g. from a package)."""
        validate_identity(entry.name, entry.adapter_type)
        if entry.name in self._adapters:
            raise ValueError(f"adapter {entry.name!r} already registered")
        _check_layout(f"adapter {entry.name!r}", entry.named_tensors(),
                      adapter_layout(self.config, entry.config))
        self._adapters[entry.name] = entry
        return entry

    def get_adapter(self, name):
        try:
            return self._adapters[name]
        except KeyError:
            raise UnknownAdapterError(
                f"unknown adapter {name!r}; registered: {sorted(self._adapters)}") from None

    def delete_adapter(self, name):
        """Unregister an adapter, removing it from the active stack if it is there."""
        entry = self.get_adapter(name)
        del self._adapters[name]
        self._stack = tuple(e for e in self._stack if e is not entry)

    def list_adapters(self):
        """Registered adapter names, in registration order."""
        return list(self._adapters)

    def adapter_param_count(self, name):
        entry = self.get_adapter(name)
        return count_adapter_params(self.config, entry.config)

    # -- heads ---------------------------------------------------------------

    def add_head(self, name, num_labels):
        """Attach a zero-initialized linear head (stable early training)."""
        num_labels = as_count(num_labels, "num_labels")
        w, b = (ad.tensor(np.zeros(shape)) for _, shape in head_layout(self.config.hidden_size, num_labels))
        return self.install_head(PredictionHead(name, num_labels, w, b))

    def install_head(self, head, replace=False):
        """Register a built head; the first head registered becomes the active one.

        Its tensors must have the shapes :func:`~adapterkit.adapters.head_layout`
        gives for this model: the rule a package reader applies.
        """
        validate_name(head.name)
        if head.name in self._heads and not replace:
            raise ValueError(f"head {head.name!r} already registered")
        _check_layout(f"head {head.name!r}", head.named_tensors(),
                      head_layout(self.config.hidden_size, head.num_labels))
        self._heads[head.name] = head
        if self.active_head is None:
            self.active_head = head.name
        return head

    def get_head(self, name=None):
        name = name if name is not None else self.active_head
        if name is None or name not in self._heads:
            raise UnknownAdapterError(
                f"unknown head {name!r}; registered: {sorted(self._heads)}")
        return self._heads[name]

    def list_heads(self):
        return list(self._heads)

    # -- activation and training modes --------------------------------------

    @property
    def active_adapters(self):
        """Names of the active stack, in order (set it with :meth:`set_active_adapters`)."""
        return [e.name for e in self._stack]

    def set_active_adapters(self, names):
        """Choose the ordered adapter stack for :meth:`encode` (may be empty; one name is a stack of one)."""
        names = [names] if isinstance(names, str) else list(names)
        stack = tuple(map(self.get_adapter, names))
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate adapter in stack: {names}")
        self._stack = stack

    def train_adapter(self, names):
        """Freeze the backbone and train only the named adapters (plus heads).

        Also activates the named adapters as the current stack, and returns the
        tuple of entries it activated.
        """
        self.set_active_adapters(names)
        stack = self._stack
        self._set_trainable(base=False, adapters={e.name for e in stack})
        return stack

    def train_full(self):
        """Mark every backbone and head tensor trainable; adapters stay frozen."""
        self._set_trainable(base=True, adapters=())

    def _set_trainable(self, base, adapters):
        """Train the backbone if ``base``, the adapters named in ``adapters``, and every head."""
        for _, t in self.weights.named_tensors():
            t.requires_grad = base
        for entry in tuple(self._adapters.values()):
            for _, t in entry.named_tensors():
                t.requires_grad = entry.name in adapters
        for head in tuple(self._heads.values()):
            head.w.requires_grad = head.b.requires_grad = True

    # -- parameter iteration --------------------------------------------------

    def named_parameters(self):
        """Yield (qualified name, tensor, owner) with owner base/adapter/head."""
        for name, t in self.weights.named_tensors():
            yield f"base.{name}", t, "base"
        for entry in tuple(self._adapters.values()):
            for name, t in entry.named_tensors():
                yield f"adapter.{entry.name}.{name}", t, "adapter"
        for head in tuple(self._heads.values()):
            for name, t in head.named_tensors():
                yield f"head.{head.name}.{name}", t, "head"

    def digest_base(self):
        """Order-sensitive sha256 over every backbone tensor's bytes."""
        return _digest(self.weights.named_tensors())

    def digest_adapter(self, name):
        return _digest(self.get_adapter(name).named_tensors())

    # -- forward ----------------------------------------------------------------

    def _layer_hooks(self):
        stack = self._stack
        if not stack:
            return None
        return [[[(e.weights[i][point], e.config) for e in stack if point in e.weights[i]]
                 for point in ("attention", "output")]
                for i in range(self.config.num_layers)]

    def encode(self, token_ids):
        """Run the encoder with the active adapter stack spliced in."""
        return bb.encode(self.config, self.weights, token_ids, self._layer_hooks())

    def batch_logits(self, sequences, head=None):
        """Encode the batch in one pass, pool, and classify with the chosen head.

        The last layer's attention keys and values cover every row; its queries and
        everything after them cover only the pooled rows.
        """
        head = self.get_head(head)
        pooled = bb.encode_batch(self.config, self.weights, sequences, self._layer_hooks(),
                                 pooled_only=True).pooled
        return ad.linear(pooled, head.w, head.b)

    def predict(self, sequences, head=None):
        """Argmax labels for a batch of token id sequences (no tape needed)."""
        logits = self.batch_logits(sequences, head)
        return [int(i) for i in np.argmax(logits.data, axis=1)]

    # -- persistence -------------------------------------------------------------

    def save_adapter(self, name, path, with_head=None):
        """Write one adapter as a portable package; returns the file's sha256.

        ``with_head`` names a registered head to bundle for standalone use.
        """
        entry = self.get_adapter(name)
        head = self.get_head(with_head) if with_head is not None else None
        return package_io.save_adapter_package(path, self.config, entry, head)

    def load_adapter(self, source, rename=None):
        """Install an adapter from a package path (or decoded package).

        The package must have been extracted from a backbone with the same
        architecture. Any bundled head is registered too (replacing a same-named head).
        Returns the registered adapter name.
        """
        pkg = source
        if not isinstance(pkg, package_io.AdapterPackage):
            pkg = package_io.load_adapter_package(source)
        if pkg.model_config_hash != self.config.config_hash():
            raise CompatibilityError(
                f"adapter {pkg.name!r} was extracted from model hash "
                f"{pkg.model_config_hash[:12]}..., this model is "
                f"{self.config.config_hash()[:12]}...")
        entry = entry_from_package(pkg, rename)
        self.install_adapter(entry)
        if pkg.head is not None:
            head_name, num_labels, w, b = pkg.head
            self.install_head(PredictionHead(head_name, num_labels, ad.tensor(w), ad.tensor(b)),
                              replace=True)
        return entry.name
