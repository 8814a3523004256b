"""Run configuration: nested defaults, strict parsing, hashing.

Configs are JSON objects mirroring the dataclasses below. Every key has a
default; unknown keys are hard errors (typos must not silently fall back).
A run manifest embeds the fully resolved config, and `load_config` accepts
either a plain config file or a manifest, so any run can be reproduced
from its own manifest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass, field
from statistics import NormalDist

from .errors import ConfigError

__all__ = [
    "TransformConfig",
    "ViewsConfig",
    "ProviderConfig",
    "FusionConfig",
    "TrainingConfig",
    "RegulatorConfig",
    "DataConfig",
    "EvalConfig",
    "PathsConfig",
    "RunConfig",
    "load_config",
    "config_from_dict",
    "config_hash",
    "ablation_ladder",
]


@dataclass(frozen=True)
class TransformConfig:
    gamma: float = 1.0
    kernel_size: int = 75
    perturbation: int = 6
    noise_sigma: float = 10.0
    scale_low: float = 0.5
    scale_mosaic: float = 1.0 / 16.0
    center: tuple[int, int] | None = None

    def check_fits(self, height: int, width: int, views, source: str) -> None:
        """ConfigError unless the center lies inside the height x width
        `source` and each listed lowres or mosaic view's scale leaves it a pixel."""
        if self.center is not None and not (
            0 <= self.center[0] < height and 0 <= self.center[1] < width
        ):
            raise ConfigError(
                f"transforms.center {list(self.center)} lies outside the "
                f"{height}x{width} {source}"
            )
        for view, name in (("lowres", "scale_low"), ("mosaic", "scale_mosaic")):
            if view in views and min(height, width) * getattr(self, name) < 1:
                raise ConfigError(
                    f"transforms.{name} {getattr(self, name)} collapses the "
                    f"{height}x{width} {source} below one pixel for the {view} view"
                )


@dataclass(frozen=True)
class ViewsConfig:
    foveated: bool = True
    noise: bool = True
    lowres: bool = True
    mosaic: bool = True
    identity: bool = False

    def enabled(self) -> list[str]:
        """Enabled view names in the fixed stack order."""
        order = ("identity", "foveated", "noise", "lowres", "mosaic")
        return [name for name in order if getattr(self, name)]

    @property
    def count(self) -> int:
        return len(self.enabled())


@dataclass(frozen=True)
class ProviderConfig:
    kind: str = "synthetic"  # "synthetic" (from images) or "bank" (precomputed)
    dim_feature: int = 64
    seed: int = 7


@dataclass(frozen=True)
class FusionConfig:
    dim_latent: int = 64
    dim_hidden: int = 64
    dim_bottleneck: int = 32
    dropout: float = 0.1
    layernorm_eps: float = 1e-5
    fuse_eps: float = 1e-8
    softplus_only: bool = False
    evidence: bool = True


@dataclass(frozen=True)
class TrainingConfig:
    epochs: int = 150
    batch_size: int = 32
    learning_rate: float = 1e-4
    weight_decay: float = 0.01
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    temperature_init: float = 0.07
    temperature_min: float = 1e-3
    temperature_max: float = 1.0
    seed: int = 42


@dataclass(frozen=True)
class RegulatorConfig:
    enabled: bool = True
    momentum: float = 0.9
    alpha: float = 0.05
    start_epoch: int = 1
    kernel_min: int = 1
    kernel_max: int | None = None  # None resolves to 2 * kernel_size - 1

    @property
    def z_value(self) -> float:
        """Two-sided normal quantile for the configured alpha."""
        return NormalDist().inv_cdf(1.0 - self.alpha / 2.0)


@dataclass(frozen=True)
class DataConfig:
    classes: int = 60
    test_classes: int = 50
    train_samples_per_class: int = 48
    image_size: int = 64
    dim_neural: int = 64
    neural_noise: float = 0.02
    seed: int = 123
    tag: str = "synthetic"
    bank_levels: tuple[int, ...] = (1, 75, 149)


@dataclass(frozen=True)
class EvalConfig:
    gallery_sizes: tuple[int, ...] = (50,)
    trials: int = 20
    seed: int = 7


@dataclass(frozen=True)
class PathsConfig:
    dataset: str = "data"
    checkpoint: str = "run/checkpoint.bick"
    input_image: str = "input.ppm"
    runs: tuple[str, ...] = ("run",)


@dataclass(frozen=True)
class RunConfig:
    transforms: TransformConfig = field(default_factory=TransformConfig)
    views: ViewsConfig = field(default_factory=ViewsConfig)
    provider: ProviderConfig = field(default_factory=ProviderConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    regulator: RegulatorConfig = field(default_factory=RegulatorConfig)
    data: DataConfig = field(default_factory=DataConfig)
    evaluation: EvalConfig = field(default_factory=EvalConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)

    @property
    def kernel_max(self) -> int:
        if self.regulator.kernel_max is not None:
            return self.regulator.kernel_max
        return 2 * self.transforms.kernel_size - 1

    def validate(self) -> "RunConfig":
        t = self.transforms
        if t.kernel_size < 1 or t.kernel_size % 2 == 0:
            raise ConfigError(f"transforms.kernel_size must be odd >= 1, got {t.kernel_size}")
        if t.perturbation < 2 or t.perturbation % 2 != 0:
            raise ConfigError(f"transforms.perturbation must be even positive, got {t.perturbation}")
        if t.gamma <= 0:
            raise ConfigError(f"transforms.gamma must be positive, got {t.gamma}")
        if t.noise_sigma < 0:
            raise ConfigError(f"transforms.noise_sigma must be >= 0, got {t.noise_sigma}")
        for name in ("scale_low", "scale_mosaic"):
            value = getattr(t, name)
            if not 0.0 < value <= 1.0:
                raise ConfigError(f"transforms.{name} must lie in (0, 1], got {value}")
        if self.views.count < 1:
            raise ConfigError("all views disabled: at least one view must be enabled")
        if self.provider.kind not in ("synthetic", "bank"):
            raise ConfigError(f"provider.kind must be 'synthetic' or 'bank', got {self.provider.kind!r}")
        if self.provider.dim_feature < 2:
            raise ConfigError(f"provider.dim_feature must be >= 2, got {self.provider.dim_feature}")
        f = self.fusion
        for name in ("dim_latent", "dim_hidden", "dim_bottleneck"):
            if getattr(f, name) < 1:
                raise ConfigError(f"fusion.{name} must be >= 1, got {getattr(f, name)}")
        if not 0.0 <= f.dropout < 1.0:
            raise ConfigError(f"fusion.dropout must lie in [0, 1), got {f.dropout}")
        tr = self.training
        if tr.epochs < 0:
            raise ConfigError(f"training.epochs must be >= 0, got {tr.epochs}")
        if tr.batch_size < 2:
            raise ConfigError(f"training.batch_size must be >= 2, got {tr.batch_size}")
        if tr.learning_rate < 0 or tr.weight_decay < 0:
            raise ConfigError("training.learning_rate and weight_decay must be >= 0")
        if not 0 < tr.temperature_min <= tr.temperature_init <= tr.temperature_max:
            raise ConfigError(
                "temperature bounds must satisfy 0 < min <= init <= max, got "
                f"{tr.temperature_min}, {tr.temperature_init}, {tr.temperature_max}"
            )
        r = self.regulator
        if not 0.0 <= r.momentum <= 1.0:
            raise ConfigError(f"regulator.momentum must lie in [0, 1], got {r.momentum}")
        if not 0.0 < r.alpha < 1.0:
            raise ConfigError(f"regulator.alpha must lie in (0, 1), got {r.alpha}")
        if r.start_epoch < 0:
            raise ConfigError(f"regulator.start_epoch must be >= 0, got {r.start_epoch}")
        if r.kernel_min < 1 or r.kernel_min % 2 == 0:
            raise ConfigError(f"regulator.kernel_min must be odd >= 1, got {r.kernel_min}")
        k_max = self.kernel_max
        if k_max % 2 == 0 or not r.kernel_min <= t.kernel_size <= k_max:
            raise ConfigError(
                f"kernel bounds must be odd with kernel_min <= kernel_size <= kernel_max, "
                f"got [{r.kernel_min}, {k_max}] around {t.kernel_size}"
            )
        d = self.data
        if d.classes < 1 or not 0 < d.test_classes < d.classes:
            raise ConfigError(
                f"data.test_classes must satisfy 0 < test_classes < classes, "
                f"got {d.test_classes} of {d.classes}"
            )
        if d.train_samples_per_class < 1:
            raise ConfigError("data.train_samples_per_class must be >= 1")
        if d.image_size < 2:
            raise ConfigError(f"data.image_size must be >= 2, got {d.image_size}")
        t.check_fits(d.image_size, d.image_size, self.views.enabled(), "image (data.image_size)")
        if d.dim_neural < 2:
            raise ConfigError(f"data.dim_neural must be >= 2, got {d.dim_neural}")
        if d.neural_noise < 0:
            raise ConfigError(f"data.neural_noise must be >= 0, got {d.neural_noise}")
        for level in d.bank_levels:
            if level < 1 or level % 2 == 0:
                raise ConfigError(f"data.bank_levels entries must be odd >= 1, got {level}")
        if len(set(d.bank_levels)) != len(d.bank_levels) or not d.bank_levels:
            raise ConfigError("data.bank_levels must be non-empty and free of duplicates")
        e = self.evaluation
        if not e.gallery_sizes or any(n < 1 for n in e.gallery_sizes):
            raise ConfigError("evaluation.gallery_sizes must be positive integers")
        if max(e.gallery_sizes) > d.test_classes:
            raise ConfigError(
                f"evaluation.gallery_sizes: gallery size n={max(e.gallery_sizes)} exceeds "
                f"the test set size {d.test_classes} (data.test_classes)"
            )
        if e.trials < 1:
            raise ConfigError(f"evaluation.trials must be >= 1, got {e.trials}")
        for name in ("data", "provider", "training", "evaluation"):
            if getattr(self, name).seed < 0:
                raise ConfigError(f"{name}.seed must be >= 0, got {getattr(self, name).seed}")
        return self

    def to_dict(self) -> dict:
        """Fully resolved plain-dict form (tuples as lists, kernel_max filled in)."""
        raw = dataclasses.asdict(self)
        raw["regulator"]["kernel_max"] = self.kernel_max
        return _listify(raw)


def _listify(value):
    if isinstance(value, dict):
        return {k: _listify(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [_listify(v) for v in value]
    return value


def _coerce_scalar(path: str, value, target: type):
    if target is bool:
        if isinstance(value, bool):
            return value
        raise ConfigError(f"{path}: expected a boolean, got {value!r}")
    allowed = (int, float) if target is float else (target,)
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise ConfigError(f"{path}: expected {target.__name__}, got {value!r}")
    # NaN fails the comparison, and so do infinities and ints too large for a float
    if target is float and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return target(value)


def _coerce_list(path: str, value, target: type) -> tuple:
    return tuple(_coerce_scalar(f"{path}[{i}]", v, target) for i, v in enumerate(value))


def _section_from_dict(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ConfigError(f"unknown config key: {path}.{unknown[0]}")
    kwargs = {}
    for name, value in data.items():
        key = f"{path}.{name}"
        if (cls, name) == (TransformConfig, "center"):
            if value is None:
                kwargs[name] = None
            elif isinstance(value, (list, tuple)) and len(value) == 2:
                kwargs[name] = _coerce_list(key, value, int)
            else:
                raise ConfigError(f"{key}: expected null or [row, col], got {value!r}")
        elif (cls, name) == (RegulatorConfig, "kernel_max"):
            kwargs[name] = None if value is None else _coerce_scalar(key, value, int)
        elif name in ("gallery_sizes", "bank_levels"):
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{key}: expected a list of integers, got {value!r}")
            kwargs[name] = _coerce_list(key, value, int)
        elif name == "runs":
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{key}: expected a list of paths, got {value!r}")
            kwargs[name] = _coerce_list(key, value, str)
        else:
            kwargs[name] = _coerce_scalar(key, value, type(getattr(cls(), name)))
    return cls(**kwargs)


_SECTIONS = {
    "transforms": TransformConfig,
    "views": ViewsConfig,
    "provider": ProviderConfig,
    "fusion": FusionConfig,
    "training": TrainingConfig,
    "regulator": RegulatorConfig,
    "data": DataConfig,
    "evaluation": EvalConfig,
    "paths": PathsConfig,
}


def config_from_dict(data: dict) -> RunConfig:
    """Build and validate a RunConfig from a plain dict; reject unknown keys."""
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be an object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(_SECTIONS))
    if unknown:
        raise ConfigError(f"unknown config key: {unknown[0]}")
    kwargs = {
        name: _section_from_dict(cls, data.get(name, {}), name)
        for name, cls in _SECTIONS.items()
    }
    return RunConfig(**kwargs).validate()


def load_config(path, command: str | None = None) -> tuple[RunConfig, int | None]:
    """Read a config file, or a run manifest (resolved config under "config").

    Returns (config, seed). A manifest written by `command` also carries the
    seed that was in effect; manifests from other commands, plain configs
    and `path` None (the defaults) give seed None.
    """
    if path is None:
        return RunConfig().validate(), None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    seed = None
    if isinstance(data, dict) and "command" in data and "config" in data:
        if data["command"] == command and data.get("seed") is not None:
            seed = _coerce_scalar(f"{path}: seed", data["seed"], int)
        data = data["config"]
    return config_from_dict(data), seed


def config_hash(config: RunConfig) -> str:
    canonical = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def ablation_ladder(base: RunConfig) -> list[tuple[str, RunConfig]]:
    """The six incremental component configurations.

    Starts from the plain-image baseline and adds, in order: the
    dynamically regulated foveated view, the noise view, the
    low-resolution view, the mosaic view, and finally evidence weighting.
    """
    def variant(name, fov, noise, low, mos, evidence):
        views = ViewsConfig(
            foveated=fov, noise=noise, lowres=low, mosaic=mos,
            identity=not (fov or noise or low or mos),
        )
        cfg = dataclasses.replace(
            base,
            views=views,
            fusion=dataclasses.replace(base.fusion, evidence=evidence),
            regulator=dataclasses.replace(base.regulator, enabled=fov),
        )
        return name, cfg.validate()

    return [
        variant("baseline", False, False, False, False, False),
        variant("dyn", True, False, False, False, False),
        variant("dyn_noise", True, True, False, False, False),
        variant("dyn_noise_res", True, True, True, False, False),
        variant("dyn_noise_res_mos", True, True, True, True, False),
        variant("dyn_noise_res_mos_el", True, True, True, True, True),
    ]
