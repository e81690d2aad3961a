"""Flat dotted-key run configuration.

Config files hold one `key = value` pair per line (# comments allowed).
Every key can be overridden on the command line with a flag of the same
dotted name. A value is parsed when it is set; unknown keys are
rejected, and keys marked required have no silent defaults.
"""

import hashlib

from .errors import ConfigError

REQUIRED = object()


def _list_of(kind):
    """Parser of a comma list of `kind` values into a tuple."""
    return lambda text: tuple(kind(x) for x in str(text).split(","))


def _bool(text):
    t = str(text).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# key -> (parser, default). REQUIRED defaults must be supplied by the file
# or a flag before the key is read.
SCHEMA = {
    "model.num_phenotypes": (int, 70),
    "model.num_labeled": (int, 50),
    "model.alpha": (float, 0.1),
    # one value broadcast to all sources, or a comma list (one per source)
    "model.gamma": (_list_of(float), (0.01,)),
    "model.b_shape": (float, 10.0),
    "model.b_scale": (float, 1.0),
    "model.bstar_shape": (float, 0.01),
    "model.bstar_scale": (float, 1.0),
    # validated but unread (Hyperparameters.hmc_*)
    "hmc.path_length": (int, 25),
    "hmc.step_size": (float, 0.01),
    "train.iterations": (int, 200),
    "train.missing_label_mode": (str, "fix_zero"),
    "train.b_mode": (str, "fixed"),
    # the mc3m baseline's Dirichlet concentration (train --model-id mc3m)
    "train.mc3m_concentration": (float, 1.0),
    "generate.num_patients": (int, 200),
    "generate.num_sources": (int, 2),
    "generate.vocab_size": (_list_of(int), (100,)),
    "generate.doc_length_mode": (str, "poisson"),
    "generate.doc_length": (float, 100.0),
    "preprocess.min_count": (int, REQUIRED),
    "preprocess.max_doc_fraction": (float, REQUIRED),
    "preprocess.stopword_file": (str, ""),
    "labels.top_k": (int, 50),
    "split.train_fraction": (float, 0.8),
    "eval.burn_in": (int, 50),
    "eval.samples": (int, 100),
    "eval.lr_lambda": (float, 1.0),
    "eval.lr_epochs": (int, 200),
    "eval.shuffle_labels": (_bool, False),
    "summarize.top_k": (int, 10),
}


class RunConfig:
    def __init__(self):
        self._values = {}

    @classmethod
    def from_file(cls, path):
        values = {}
        try:
            with open(path, "r", encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, start=1):
                    text = line.split("#", 1)[0].strip()
                    if not text:
                        continue
                    if "=" not in text:
                        raise ConfigError(
                            f"{path}:{lineno}: expected 'key = value'")
                    key, raw = (part.strip() for part in text.split("=", 1))
                    values[key] = raw
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
        unknown = set(values) - set(SCHEMA)
        if unknown:
            raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
        cfg = cls()
        for key, raw in values.items():
            cfg.override(key, raw)
        return cfg

    def override(self, key, raw_value):
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key: {key}")
        try:
            self._values[key] = SCHEMA[key][0](raw_value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {raw_value!r} ({exc})")

    def get(self, key):
        value = self._values.get(key, SCHEMA[key][1])
        if value is REQUIRED:
            raise ConfigError(f"config key {key} is required and has no default")
        return value

    def resolved_text(self):
        """Canonical key-sorted echo of every key with a value."""
        lines = []
        for key in sorted(SCHEMA):
            value = self._values.get(key, SCHEMA[key][1])
            if value is not REQUIRED:
                if isinstance(value, tuple):
                    value = ",".join(str(v) for v in value)
                lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"

    def digest(self):
        return hashlib.sha256(self.resolved_text().encode()).hexdigest()

    def per_source(self, key, num_sources):
        """Broadcast a 1-element tuple to num_sources, or check length."""
        values = self.get(key)
        if len(values) == 1:
            return tuple(values) * num_sources
        if len(values) != num_sources:
            raise ConfigError(
                f"{key} must have 1 or {num_sources} entries, got {len(values)}")
        return tuple(values)
