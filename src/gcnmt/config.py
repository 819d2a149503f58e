"""Experiment and training configuration, plus the config-file schema.

Config files are plain ``key = value`` lines (``#`` starts a comment).
Unknown keys are rejected. CLI flags mirror the same keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .corpus import read_text


class ConfigError(ValueError):
    """Invalid configuration value or file."""


# Recipe block kind -> the graphs its layers read.
RECIPE_KINDS = {"sem": ("sem",), "syn": ("syn",), "semsyn": ("sem", "syn"),
                "selfloop": ()}


def parse_recipe(text: str):
    """Parse a recipe string such as ``none``, ``sem:2`` or ``syn:2+sem:1``.

    A GCN recipe is an ordered list of blocks; each block reads a fixed set
    of graphs ("sem", "syn", both for the fused variant, or none for the
    self-loop ablation) for a given number of stacked layers. Returns a
    list of ``(graphs, layers)`` tuples.
    """
    text = text.strip()
    if text == "none":
        return []
    blocks = []
    for part in text.split("+"):
        part = part.strip()
        name, sep, count = part.partition(":")
        if not sep:
            raise ConfigError(f"recipe block {part!r}: expected <kind>:<layers>")
        try:
            k = int(count)
        except ValueError as e:
            raise ConfigError(f"recipe block {part!r}: bad layer count") from e
        if not 1 <= k <= 3:
            raise ConfigError(f"recipe block {part!r}: layer count must be 1..3")
        if name not in RECIPE_KINDS:
            raise ConfigError(f"recipe block {part!r}: unknown kind {name!r}")
        blocks.append((RECIPE_KINDS[name], k))
    return blocks


@dataclass
class ExperimentConfig:
    """One row of the configuration matrix: encoder kind, GCN stack, decoding."""

    encoder: str = "birnn"          # birnn | cnn
    recipe: str = "none"            # GCN stack recipe, see parse_recipe
    emb_size: int = 256
    hidden_size: int = 512
    attn_size: int = 64
    cnn_window: int = 5
    decode: str = "greedy"          # greedy | beam
    beam_size: int = 12
    max_decode_len: int = 60
    bpe_merges: int = 8000

    def validate(self) -> None:
        if self.encoder not in ("birnn", "cnn"):
            raise ConfigError(f"encoder must be birnn or cnn, got {self.encoder!r}")
        if self.decode not in ("greedy", "beam"):
            raise ConfigError(f"decode must be greedy or beam, got {self.decode!r}")
        if self.cnn_window < 1 or self.cnn_window % 2 == 0:
            raise ConfigError(f"cnn_window must be odd and >= 1, got {self.cnn_window}")
        if self.beam_size < 1:
            raise ConfigError("beam_size must be >= 1")
        if min(self.emb_size, self.hidden_size, self.attn_size,
               self.max_decode_len, self.bpe_merges + 1) < 1:
            raise ConfigError("sizes must be positive")
        parse_recipe(self.recipe)

    @property
    def blocks(self):
        return parse_recipe(self.recipe)

    @property
    def enc_width(self) -> int:
        return 2 * self.hidden_size if self.encoder == "birnn" else self.hidden_size


@dataclass
class TrainConfig:
    """Optimization hyperparameters (defaults mirror the small-data setup)."""

    learning_rate: float = 2e-4
    epochs: int = 50
    l2_coeff: float = 1e-8
    word_retain: float = 0.8
    edge_retain: float = 0.8
    batch_size: int = 64
    rng_seed: int = 1
    max_sentence_len: int = 80
    min_count: int = 4
    checkpoint_every: int = 1

    def validate(self) -> None:
        if not (0.0 < self.word_retain <= 1.0 and 0.0 < self.edge_retain <= 1.0):
            raise ConfigError("retain probabilities must lie in (0, 1]")
        # nan fails every comparison, so these bounds reject it too
        if not 0.0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be positive and finite, "
                              f"got {self.learning_rate}")
        if not 0.0 <= self.l2_coeff < math.inf:
            raise ConfigError(f"l2_coeff must be >= 0 and finite, got {self.l2_coeff}")
        if min(self.epochs, self.batch_size, self.max_sentence_len,
               self.min_count, self.checkpoint_every) < 1:
            raise ConfigError("epochs/batch_size/lengths must be >= 1")


@dataclass
class DataPaths:
    """File locations used by the experiment runner."""

    train_conll: str = ""
    train_tgt: str = ""
    val_conll: str = ""
    val_tgt: str = ""
    test_conll: str = ""
    test_tgt: str = ""
    out_dir: str = "runs/default"


_SECTIONS = (ExperimentConfig, TrainConfig, DataPaths)


def _field_map():
    mapping = {}
    for cls in _SECTIONS:
        for f in fields(cls):
            mapping[f.name] = (cls, f)
    return mapping


def load_config(path):
    """Read a config file into (ExperimentConfig, TrainConfig, DataPaths)."""
    return parse_config(read_text(path), origin=str(path))


def parse_config(text: str, origin: str = "<config>"):
    mapping = _field_map()
    values = {cls: {} for cls in _SECTIONS}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{origin} line {lineno}: expected key = value")
        key, value = key.strip(), value.strip()
        if key not in mapping:
            raise ConfigError(f"{origin} line {lineno}: unknown key {key!r}")
        cls, f = mapping[key]
        try:
            if f.type in ("int", int):
                values[cls][key] = int(value)
            elif f.type in ("float", float):
                values[cls][key] = float(value)
            else:
                values[cls][key] = value
        except ValueError as e:
            raise ConfigError(f"{origin} line {lineno}: bad value for {key}") from e
    exp = ExperimentConfig(**values[ExperimentConfig])
    train = TrainConfig(**values[TrainConfig])
    paths = DataPaths(**values[DataPaths])
    exp.validate()
    train.validate()
    return exp, train, paths


def dump_config(exp: ExperimentConfig, train: TrainConfig, paths: DataPaths) -> str:
    """The config text that ``parse_config`` reads back as these sections.

    ``parse_config`` cuts a line at ``#`` and strips its value, and a file
    reads ``\r`` as a line break, so a value holding ``#``, ``\n`` or
    ``\r``, or with leading or trailing whitespace, raises ``ConfigError``
    naming its key instead of being written as a different value.
    """
    lines = []
    for section in (exp, train, paths):
        for f in fields(section):
            value = str(getattr(section, f.name))
            if value != value.strip() or any(c in value for c in "#\n\r"):
                raise ConfigError(f"{f.name} = {value!r} would not read back "
                                  "from a config file")
            lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


# Named recipe grids for the experiment runner. "paper-small" is the
# baseline / +Sem / +Syn / +Syn+Sem comparison on the small corpus.
GRIDS = {
    "paper-small": ["none", "sem:1", "syn:1", "syn:1+sem:1"],
    "ablation": ["none", "sem:1", "sem:2", "sem:3", "syn:2",
                 "selfloop:1", "selfloop:2",
                 "semsyn:1", "syn:1+sem:1", "syn:1+sem:2",
                 "syn:2+sem:1", "syn:2+sem:2"],
}
