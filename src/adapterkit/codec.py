"""The flat ``key=value`` text format shared by configs and package headers.

A config's descriptor is one ``field=value`` line per dataclass field, in
field order, with booleans spelled ``true``/``false``; its
:meth:`~Descriptor.config_hash` is the SHA-256 of that text. Every package
and hub card carries these hashes, so the text of a config never changes,
and a descriptor parses only when it is exactly the text its config writes.
A config in turn holds only values that text reads back.

Every count, seed and size a caller hands in passes :func:`as_count`, the
one rule for a single integer; arrays of token ids, labels and lengths pass
:func:`~adapterkit.autodiff.index_array`, the one rule for integer arrays.
Both refuse ``bool``.

Hub cards and archive metadata are YAML from untrusted sources, and
:func:`load_yaml` is their one parser; it raises ``yaml.YAMLError`` on any
text it cannot turn into values. libyaml's iterative event parser reads the
text where PyYAML was built with it (PyYAML's pure-Python parser where not),
and PyYAML's Python composer builds the nodes from its events, refusing any
nesting deeper than ``MAX_YAML_DEPTH``.
"""

import hashlib
import numbers
from dataclasses import fields
from functools import cached_property

import yaml

# Composers recurse once per level: libyaml's C composer crashes the interpreter on
# "[" * 40_000 and PyYAML's Python one spends a second of CPU before the recursion
# limit stops it. So the Python composer, fed by an iterative event parser, stops here
MAX_YAML_DEPTH = 64


def as_count(value, what, minimum=0):
    """``value`` as an ``int``: any integer type but ``bool`` (Python's or numpy's), never
    truncated, at least ``minimum``; ``ValueError`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):  # numpy's bool is no Integral
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {value!r}")
    return int(value)


def format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def read_value(type_, raw):
    """Inverse of :func:`format_value` for one field type; canonical text only."""
    value = raw == "true" if type_ is bool else type_(raw)
    if format_value(value) != raw:
        raise ValueError(f"{raw!r} is not a canonical {type_.__name__}")
    return value


def write_pairs(pairs):
    return "".join(f"{key}={format_value(value)}\n" for key, value in pairs)


def read_pairs(lines):
    """Ordered ``{key: raw value}`` from ``key=value`` lines; no key may repeat."""
    values = {}
    for lineno, line in enumerate(lines, 1):
        key, sep, raw = line.partition("=")
        if not sep:
            raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        values[key] = raw
    return values


class Descriptor:
    """Descriptor text, hash and parser for a frozen config dataclass.

    The text and its hash are made once per instance, on first use, and kept in its
    ``__dict__``; a pickle or copy holds the fields alone, as the dataclass's own would."""

    def __post_init__(self):
        """Each field holds exactly its declared type (``bool`` is no ``int``, an ``int`` no
        ``float``) and a string no line break; any other value raises ``ValueError``."""
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not f.type:
                raise ValueError(f"{f.name} must be a {f.type.__name__}, got {value!r}")
            if isinstance(value, str) and "".join(value.splitlines()) != value:
                raise ValueError(f"{f.name} may not contain a line break, got {value!r}")

    def descriptor(self):
        """Canonical flat key=value text; its hash identifies the architecture."""
        return self._descriptor

    def config_hash(self):
        return self._config_hash

    @cached_property
    def _descriptor(self):
        return write_pairs((f.name, getattr(self, f.name)) for f in fields(self))

    @cached_property
    def _config_hash(self):
        return hashlib.sha256(self._descriptor.encode("utf-8")).hexdigest()

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k not in ("_descriptor", "_config_hash")}

    @classmethod
    def parse(cls, text):
        """Inverse of :meth:`descriptor`; raises ``ValueError`` on any other text."""
        types = {f.name: f.type for f in fields(cls)}
        values = read_pairs(text.splitlines())
        unknown = sorted(set(values) - set(types))
        if unknown:
            raise ValueError(f"unknown {cls.__name__} keys: {unknown}")
        config = cls(**{key: read_value(types[key], raw) for key, raw in values.items()})
        if config.descriptor() != text:
            raise ValueError(f"not a canonical {cls.__name__} descriptor: "
                             "every field once, in field order, one per line")
        return config


# the event source: libyaml's parser where PyYAML has it, else PyYAML's own
_LOADER_BASES = ((yaml.cyaml.CParser,) if yaml.__with_libyaml__
                 else (yaml.reader.Reader, yaml.scanner.Scanner, yaml.parser.Parser)) + (
    yaml.composer.Composer, yaml.constructor.SafeConstructor, yaml.resolver.Resolver)


class _DepthBoundLoader(*_LOADER_BASES):
    depth = 0  # nesting of the node being composed; `+=` gives each loader its own count
    # the Python composer's entry points, never CParser's recursive C composer
    get_single_node = yaml.composer.Composer.get_single_node
    check_node = yaml.composer.Composer.check_node
    get_node = yaml.composer.Composer.get_node

    def __init__(self, stream):
        _LOADER_BASES[0].__init__(self, stream)  # CParser or Reader; the rest take no stream
        for base in _LOADER_BASES[1:]:
            base.__init__(self)

    def compose_node(self, parent, index):
        if self.depth == MAX_YAML_DEPTH:
            raise yaml.YAMLError(f"YAML nested deeper than {MAX_YAML_DEPTH} levels")
        self.depth += 1
        node = super().compose_node(parent, index)
        self.depth -= 1
        return node


def load_yaml(text):
    """``yaml.safe_load`` that raises only ``yaml.YAMLError``, also on nesting deeper than MAX_YAML_DEPTH."""
    try:
        return yaml.load(text, Loader=_DepthBoundLoader)
    except (ValueError, LookupError, AttributeError) as exc:  # a value yaml cannot build: 2001-13-45
        raise yaml.YAMLError(f"{type(exc).__name__}: {exc}") from None
