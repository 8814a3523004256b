"""Run configuration: nested defaults, strict parsing, hashing.

Configs are JSON objects mirroring the dataclasses below. Every key has a
default; unknown keys are hard errors (typos must not silently fall back).
A run manifest embeds the fully resolved config, and `load_config` accepts
either a plain config file or a manifest, so any run can be reproduced
from its own manifest.
"""

import dataclasses
import hashlib
import json
import sys
import typing
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Annotated

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


# A field annotated Annotated[T, (text, test)] accepts the values that pass
# `test`, each item of a tuple on its own; `RunConfig.validate` rejects any
# other with "{section}.{field} must {text}, got {value}".
def _at_least(low: int) -> tuple:
    return f"be >= {low}", lambda v: v >= low


_POSITIVE = ("be positive", lambda v: v > 0)
_ODD = ("be odd >= 1", lambda v: v >= 1 and v % 2 == 1)
_EVEN = ("be even positive", lambda v: v >= 2 and v % 2 == 0)
_UNIT = ("lie in [0, 1]", lambda v: 0.0 <= v <= 1.0)
_UNIT_NO_0 = ("lie in (0, 1]", lambda v: 0.0 < v <= 1.0)
_UNIT_NO_1 = ("lie in [0, 1)", lambda v: 0.0 <= v < 1.0)
# below 2**-53, 1 - alpha/2 rounds to 1, which has no normal quantile
_ALPHA = ("lie in (0, 1) and exceed 2**-53", lambda v: 2.0**-53 < v < 1.0)


@dataclass(frozen=True)
class TransformConfig:
    gamma: Annotated[float, _POSITIVE] = 1.0
    kernel_size: Annotated[int, _ODD] = 75
    perturbation: Annotated[int, _EVEN] = 6
    noise_sigma: Annotated[float, _at_least(0)] = 10.0
    scale_low: Annotated[float, _UNIT_NO_0] = 0.5
    scale_mosaic: Annotated[float, _UNIT_NO_0] = 1.0 / 16.0
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
    dim_feature: Annotated[int, _at_least(2)] = 64
    seed: Annotated[int, _at_least(0)] = 7


@dataclass(frozen=True)
class FusionConfig:
    dim_latent: Annotated[int, _at_least(1)] = 64
    dim_hidden: Annotated[int, _at_least(1)] = 64
    dim_bottleneck: Annotated[int, _at_least(1)] = 32
    dropout: Annotated[float, _UNIT_NO_1] = 0.1
    layernorm_eps: Annotated[float, _POSITIVE] = 1e-5
    fuse_eps: Annotated[float, _POSITIVE] = 1e-8
    softplus_only: bool = False
    evidence: bool = True


@dataclass(frozen=True)
class TrainingConfig:
    epochs: Annotated[int, _at_least(0)] = 150
    batch_size: Annotated[int, _at_least(2)] = 32
    learning_rate: Annotated[float, _at_least(0)] = 1e-4
    weight_decay: Annotated[float, _at_least(0)] = 0.01
    adam_beta1: Annotated[float, _UNIT_NO_1] = 0.9
    adam_beta2: Annotated[float, _UNIT_NO_1] = 0.999
    adam_eps: Annotated[float, _POSITIVE] = 1e-8
    temperature_init: float = 0.07
    temperature_min: float = 1e-3
    temperature_max: float = 1.0
    seed: Annotated[int, _at_least(0)] = 42


@dataclass(frozen=True)
class RegulatorConfig:
    enabled: bool = True
    momentum: Annotated[float, _UNIT] = 0.9
    alpha: Annotated[float, _ALPHA] = 0.05
    start_epoch: Annotated[int, _at_least(0)] = 1
    kernel_min: Annotated[int, _ODD] = 1
    kernel_max: int | None = None  # None resolves to 2 * kernel_size - 1

    @property
    def z_value(self) -> float:
        """Two-sided normal quantile for the configured alpha."""
        return NormalDist().inv_cdf(1.0 - self.alpha / 2.0)


@dataclass(frozen=True)
class DataConfig:
    classes: int = 60
    test_classes: int = 50
    train_samples_per_class: Annotated[int, _at_least(1)] = 48
    image_size: Annotated[int, _at_least(2)] = 64
    dim_neural: Annotated[int, _at_least(2)] = 64
    neural_noise: Annotated[float, _at_least(0)] = 0.02
    seed: Annotated[int, _at_least(0)] = 123
    tag: str = "synthetic"
    bank_levels: Annotated[tuple[int, ...], _ODD] = (1, 75, 149)


@dataclass(frozen=True)
class EvalConfig:
    gallery_sizes: Annotated[tuple[int, ...], _POSITIVE] = (50,)
    trials: Annotated[int, _at_least(1)] = 20
    seed: Annotated[int, _at_least(0)] = 7


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
        for section, name, (text, test) in _RULES:
            value = getattr(getattr(self, section), name)
            items = value if isinstance(value, tuple) else (value,)
            for i, item in enumerate(items):
                if not test(item):
                    index = f"[{i}]" if isinstance(value, tuple) else ""
                    raise ConfigError(f"{section}.{name}{index} must {text}, got {item}")
        # the rules that compare two or more fields, and the provider kind
        t, r, tr, d, e = self.transforms, self.regulator, self.training, self.data, self.evaluation
        if self.views.count < 1:
            raise ConfigError("all views disabled: at least one view must be enabled")
        if self.provider.kind not in ("synthetic", "bank"):
            raise ConfigError(f"provider.kind must be 'synthetic' or 'bank', got {self.provider.kind!r}")
        if not 0 < tr.temperature_min <= tr.temperature_init <= tr.temperature_max:
            raise ConfigError(
                "temperature bounds must satisfy 0 < min <= init <= max, got "
                f"{tr.temperature_min}, {tr.temperature_init}, {tr.temperature_max}"
            )
        k_max = self.kernel_max
        if k_max % 2 == 0 or not r.kernel_min <= t.kernel_size <= k_max:
            raise ConfigError(
                f"kernel bounds must be odd with kernel_min <= kernel_size <= kernel_max, "
                f"got [{r.kernel_min}, {k_max}] around {t.kernel_size}"
            )
        if not 0 < d.test_classes < d.classes:
            raise ConfigError(
                f"data.test_classes must satisfy 0 < test_classes < classes, "
                f"got {d.test_classes} of {d.classes}"
            )
        t.check_fits(d.image_size, d.image_size, self.views.enabled(), "image (data.image_size)")
        if len(set(d.bank_levels)) != len(d.bank_levels) or not d.bank_levels:
            raise ConfigError("data.bank_levels must be non-empty and free of duplicates")
        if not e.gallery_sizes:
            raise ConfigError("evaluation.gallery_sizes must list at least one positive size")
        if max(e.gallery_sizes) > d.test_classes:
            raise ConfigError(
                f"evaluation.gallery_sizes: gallery size n={max(e.gallery_sizes)} exceeds "
                f"the test set size {d.test_classes} (data.test_classes)"
            )
        return self

    def to_dict(self) -> dict:
        """Fully resolved plain-dict form (kernel_max filled in); json.dumps
        writes its tuples as lists."""
        raw = dataclasses.asdict(self)
        raw["regulator"]["kernel_max"] = self.kernel_max
        return raw


def _coerce(path: str, value, hint, what: str = ""):
    """`value` as the field annotation `hint` declares it: bool, int, float,
    str, tuple[X, ...], a fixed-length tuple[X, Y] or X | None, each maybe
    wrapped in Annotated[..., rule]. `what` prefixes the expected form in
    error messages."""
    if typing.get_origin(hint) is Annotated:
        hint = hint.__origin__
    args = typing.get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        (inner,) = (a for a in args if a is not type(None))
        return _coerce(path, value, inner, "null or ")
    if typing.get_origin(hint) is tuple:
        variadic = args[-1] is Ellipsis
        if not isinstance(value, (list, tuple)) or not (variadic or len(value) == len(args)):
            count = "" if variadic else f"{len(args)} "
            raise ConfigError(
                f"{path}: expected {what}a list of {count}{args[0].__name__}, got {value!r}"
            )
        items = args[:1] * len(value) if variadic else args
        return tuple(_coerce(f"{path}[{i}]", v, t) for i, (v, t) in enumerate(zip(value, items)))
    if hint is bool:
        if isinstance(value, bool):
            return value
        raise ConfigError(f"{path}: expected {what}a boolean, got {value!r}")
    allowed = (int, float) if hint is float else (hint,)
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise ConfigError(f"{path}: expected {what}{hint.__name__}, got {value!r}")
    # NaN fails the comparison, and so do infinities and ints too large for a float
    if hint is float and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return hint(value)


def _section_from_dict(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object, got {type(data).__name__}")
    hints = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(hints))
    if unknown:
        raise ConfigError(f"unknown config key: {path}.{unknown[0]}")
    return cls(**{name: _coerce(f"{path}.{name}", value, hints[name]) for name, value in data.items()})


_SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(RunConfig)}
# (section, field, rule) for every field annotated Annotated[T, rule]
_RULES = [
    (section, f.name, f.type.__metadata__[0])
    for section, cls in _SECTIONS.items()
    for f in dataclasses.fields(cls)
    if typing.get_origin(f.type) is Annotated
]


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
            seed = _coerce(f"{path}: seed", data["seed"], int)
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
