"""Run configuration: a YAML file (or inline overrides) with strict key
checking, SI-suffixed quantities, and defaults that reproduce the headline
experiments with no configuration at all."""

from __future__ import annotations

import dataclasses
import re
from dataclasses import InitVar, dataclass, field, fields

import yaml

from .analytics import MismatchParams
from .crossbar import CrossbarSpec
from .devices import LinearDeviceParams, NonlinearDeviceParams, VariationSpec


class ConfigError(ValueError):
    """Schema violation, reported with the offending key path."""

    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")
        self.where = where


_QTY_RE = re.compile(r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([a-zA-ZµμΩ]*)\s*$")
_PREFIXES = {
    "": 1.0, "f": 1e-15, "p": 1e-12, "n": 1e-9, "u": 1e-6, "µ": 1e-6,
    "μ": 1e-6, "m": 1e-3, "k": 1e3, "K": 1e3, "M": 1e6, "G": 1e9, "T": 1e12,
}
_UNITS = ("ohm", "Ohm", "OHM", "Ω", "Hz", "V", "A", "W", "J", "s", "S", "F")


def parse_quantity(value, where: str = "value") -> float:
    """Parse a number or an SI-suffixed string like '2mV', '0.22uA', '1MΩ'.

    The unit letter only documents intent; the returned float is in base SI.
    """
    if isinstance(value, bool):
        raise ConfigError(where, f"expected a number, got boolean {value}")
    if isinstance(value, (int, float)):
        return float(value)
    if not isinstance(value, str):
        raise ConfigError(where, f"expected number or quantity string, got {type(value).__name__}")
    m = _QTY_RE.match(value)
    if not m:
        raise ConfigError(where, f"cannot parse quantity {value!r}")
    number, suffix = m.groups()
    if not suffix:
        return float(number)
    for unit in _UNITS:
        if suffix.endswith(unit):
            prefix = suffix[: -len(unit)]
            break
    else:
        raise ConfigError(where, f"unknown unit in {value!r} (use V, A, W, J, s, F, Hz or ohm)")
    if prefix not in _PREFIXES:
        raise ConfigError(where, f"unknown SI prefix {prefix!r} in {value!r}")
    return float(number) * _PREFIXES[prefix]


@dataclass(frozen=True)
class CrossbarConfig:
    rows: int = 512
    cols: int = 512
    r_wire: float = 10.0
    r_driver: float = 0.0
    v_dd: float = 1.2
    v_b: float = 0.7
    double_sided_clamps: bool = False

    def to_spec(self) -> CrossbarSpec:
        return CrossbarSpec(**dataclasses.asdict(self))


@dataclass(frozen=True)
class DeviceConfig:
    model: str = "linear"  # "linear" or "nonlinear"
    lrs_ohms: float = 1e6
    hrs_ohms: float = 1e9
    k_on: float = 1e-8
    k_off: float = 1e-11
    a: float = 3.0

    def __post_init__(self):
        if self.model not in ("linear", "nonlinear"):
            raise ValueError(f"model must be 'linear' or 'nonlinear', got {self.model!r}")

    def linear_params(self) -> LinearDeviceParams:
        return LinearDeviceParams(self.lrs_ohms, self.hrs_ohms)

    def nonlinear_params(self) -> NonlinearDeviceParams:
        return NonlinearDeviceParams(self.k_on, self.k_off, self.a)

    def base_params(self):
        return self.linear_params() if self.model == "linear" else self.nonlinear_params()


@dataclass(frozen=True)
class VariationConfig:
    relative_sigma: float = 0.10
    # Every campaign derives its variation seed from the trial stream
    # (experiments.sample_trial), so there is no seed setting: config files
    # and overrides that name one are rejected as unknown keys.  The
    # init-only keyword is accepted and dropped so that Python callers
    # written against the old field still construct.
    seed: InitVar[int | None] = None


@dataclass(frozen=True)
class MismatchConfig:
    """Sensing window of the mismatch sweep; its line offsets are
    ``experiment.delta_v_grid``."""

    i_max: float = 0.22e-6
    i_min: float = 0.195e-6


@dataclass(frozen=True)
class ExperimentConfig:
    trials: int = 4
    master_seed: int = 1
    pattern_p: float = 0.5
    workers: int = 1
    # single-cell read campaign
    sample_cells: int = 4096
    backgrounds: int = 4
    # power sweep
    sizes: tuple[int, ...] = (64, 128, 256, 512)
    v_b_list: tuple[float, ...] = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1)
    power_rows: int = 4
    # mismatch sweep
    delta_v_grid: tuple[float, ...] = (0.5e-3, 1e-3, 2e-3, 3e-3, 4e-3, 5e-3)
    # scheme comparison
    scheme_sizes: tuple[int, ...] = (16, 32, 64, 128)
    scheme_rows: int = 8
    r_s: float = 1e5
    ber_fail_threshold: float = 1e-3
    # histograms
    map_bins: int = 64

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not (0 < self.pattern_p < 1):
            raise ValueError(f"pattern_p must be in (0, 1), got {self.pattern_p}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        # An empty campaign has nothing to report: reject it here, not mid-run.
        for name in ("sample_cells", "backgrounds", "power_rows", "scheme_rows", "map_bins"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("sizes", "scheme_sizes"):
            sizes = getattr(self, name)
            if not sizes or min(sizes) < 1:
                raise ValueError(f"{name} must be a nonempty list of positive sizes, got {list(sizes)}")
        for name in ("v_b_list", "delta_v_grid"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be a nonempty list")


@dataclass(frozen=True)
class RunConfig:
    crossbar: CrossbarConfig = field(default_factory=CrossbarConfig)
    device: DeviceConfig = field(default_factory=DeviceConfig)
    variation: VariationConfig = field(default_factory=VariationConfig)
    mismatch: MismatchConfig = field(default_factory=MismatchConfig)
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    output_dir: str | None = None

    def validate(self) -> "RunConfig":
        # Surface cross-field violations with their section names.
        for section, build in (
            ("crossbar", self.crossbar.to_spec),
            ("variation", lambda: VariationSpec(self.variation.relative_sigma)),
            ("mismatch", lambda: MismatchParams(**dataclasses.asdict(self.mismatch))),
        ):
            try:
                build()
            except (ValueError, TypeError) as e:
                raise ConfigError(section, str(e)) from e
        try:
            self.device.base_params()
        except (ValueError, TypeError) as e:
            raise ConfigError("device", str(e)) from e
        # The power sweep skips hold voltages at or above v_dd.
        if min(self.experiment.v_b_list) >= self.crossbar.v_dd:
            raise ConfigError("experiment", f"v_b_list {list(self.experiment.v_b_list)} has no "
                              f"value below crossbar.v_dd ({self.crossbar.v_dd} V)")
        return self


_INT_FIELDS = {"rows", "cols", "master_seed", "trials", "workers",
               "sample_cells", "backgrounds", "power_rows", "scheme_rows", "map_bins"}
_STR_FIELDS = {"model", "output_dir"}
_BOOL_FIELDS = {"double_sided_clamps"}
_TUPLE_FIELDS = {"sizes", "v_b_list", "delta_v_grid", "scheme_sizes"}


def _coerce(name: str, value, where: str):
    if name in _STR_FIELDS:
        if value is not None and not isinstance(value, str):
            raise ConfigError(where, f"expected string, got {value!r}")
        return value
    if name in _BOOL_FIELDS:
        if not isinstance(value, bool):
            raise ConfigError(where, f"expected true/false, got {value!r}")
        return value
    if name in _TUPLE_FIELDS:
        if isinstance(value, str):
            value = [v for v in re.split(r"[,\s]+", value.strip()) if v]
        if not isinstance(value, (list, tuple)):
            raise ConfigError(where, f"expected a list, got {value!r}")
        items = [parse_quantity(v, f"{where}[{k}]") for k, v in enumerate(value)]
        if name in ("sizes", "scheme_sizes"):
            return tuple(int(v) for v in items)
        return tuple(items)
    num = parse_quantity(value, where)
    if name in _INT_FIELDS:
        if num != int(num):
            raise ConfigError(where, f"expected an integer, got {value!r}")
        return int(num)
    return num


def _build_section(cls, data: dict, where: str):
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(where, f"unknown key(s) {sorted(unknown)}; known: {sorted(known)}")
    kwargs = {k: _coerce(k, v, f"{where}.{k}") for k, v in data.items()}
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as e:
        raise ConfigError(where, str(e)) from e


_SECTIONS = {
    "crossbar": CrossbarConfig,
    "device": DeviceConfig,
    "variation": VariationConfig,
    "mismatch": MismatchConfig,
    "experiment": ExperimentConfig,
}


def _apply_overrides(tree: dict, overrides) -> dict:
    for item in overrides or ():
        if isinstance(item, str):
            if "=" not in item:
                raise ConfigError("overrides", f"expected KEY=VALUE, got {item!r}")
            key, value = item.split("=", 1)
            value = yaml.safe_load(value)
        else:
            key, value = item
        parts = key.strip().split(".")
        node = tree
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ConfigError(key, "override path collides with a scalar")
        node[parts[-1]] = value
    return tree


def parse_config(path=None, overrides=()) -> RunConfig:
    """Load and validate a run configuration.

    With no file and no overrides this returns the full default
    configuration (array 512x512, 10 ohm wire, 1.2/0.7 V biasing, the
    standard two-state device parameters, 10% variation, and the default
    sensing window).
    """
    tree: dict = {}
    if path is not None:
        with open(path) as f:
            loaded = yaml.safe_load(f)
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(str(path), "top level of the config must be a mapping")
        tree = loaded
    tree = _apply_overrides(tree, overrides)

    known = set(_SECTIONS) | {"output_dir"}
    unknown = set(tree) - known
    if unknown:
        raise ConfigError("<top>", f"unknown section(s) {sorted(unknown)}; known: {sorted(known)}")

    kwargs = {}
    for name, cls in _SECTIONS.items():
        section = tree.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(name, f"expected a mapping, got {section!r}")
        kwargs[name] = _build_section(cls, section, name)
    out_dir = tree.get("output_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("output_dir", f"expected string, got {out_dir!r}")
    return RunConfig(output_dir=out_dir, **kwargs).validate()


def emit_config(cfg: RunConfig) -> str:
    """Serialize a RunConfig to YAML (base SI values; round-trips through
    parse_config to an equal RunConfig)."""
    tree = {}
    for name in _SECTIONS:
        section = dataclasses.asdict(getattr(cfg, name))
        tree[name] = {
            k: (list(v) if isinstance(v, tuple) else v) for k, v in section.items()
        }
    if cfg.output_dir is not None:
        tree["output_dir"] = cfg.output_dir
    return yaml.safe_dump(tree, sort_keys=True)


def config_echo(cfg: RunConfig) -> dict:
    """JSON-ready nested dict of the configuration for result summaries."""
    return yaml.safe_load(emit_config(cfg))
