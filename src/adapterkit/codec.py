"""The flat ``key=value`` text format shared by configs and package headers.

A config's descriptor is one ``field=value`` line per dataclass field, in
field order, with booleans spelled ``true``/``false``; its
:meth:`~Descriptor.config_hash` is the SHA-256 of that text. Every package
and hub card carries these hashes, so the text of a config never changes,
and a descriptor parses only when it is exactly the text its config writes.

Hub cards and archive metadata are YAML from untrusted sources, and
:func:`load_yaml` is their one parser.
"""

import hashlib
from dataclasses import fields

import yaml

# PyYAML composes nodes recursively: a hostile "[" * 2000 costs a second of CPU
# before the interpreter's recursion limit stops it, so stop far earlier
MAX_YAML_DEPTH = 64


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
    """Descriptor text, hash and parser for a frozen config dataclass."""

    def descriptor(self):
        """Canonical flat key=value text; its hash identifies the architecture."""
        return write_pairs((f.name, getattr(self, f.name)) for f in fields(self))

    def config_hash(self):
        return hashlib.sha256(self.descriptor().encode("utf-8")).hexdigest()

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


class _DepthBoundLoader(yaml.SafeLoader):
    depth = 0  # nesting of the node being composed; `+=` gives each loader its own count

    def compose_node(self, parent, index):
        if self.depth == MAX_YAML_DEPTH:
            raise yaml.YAMLError(f"YAML nested deeper than {MAX_YAML_DEPTH} levels")
        self.depth += 1
        node = super().compose_node(parent, index)
        self.depth -= 1
        return node


def load_yaml(text):
    """``yaml.safe_load`` that raises ``yaml.YAMLError`` on nesting deeper than MAX_YAML_DEPTH."""
    return yaml.load(text, Loader=_DepthBoundLoader)
