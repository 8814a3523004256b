"""Config parsing, validation, hashing, and the ablation ladder."""

import dataclasses
import importlib.util
import json
import math
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_config
from fovalign.config import (
    RunConfig,
    ViewsConfig,
    ablation_ladder,
    config_from_dict,
    config_hash,
    load_config,
    parse_record,
)
from fovalign.errors import ConfigError

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_defaults_validate():
    cfg = RunConfig().validate()
    assert cfg.transforms.kernel_size == 75
    assert cfg.transforms.perturbation == 6
    assert cfg.views.enabled() == ["foveated", "noise", "lowres", "mosaic"]


def test_default_galleries_fit_the_default_test_set():
    cfg = RunConfig().validate()
    assert max(cfg.evaluation.gallery_sizes) <= cfg.data.test_classes


def test_empty_dict_gives_defaults():
    assert config_from_dict({}) == RunConfig()


def test_round_trips_through_to_dict():
    cfg = config_from_dict({
        "data": {"classes": 12, "test_classes": 4}, "evaluation": {"gallery_sizes": [4, 2]},
    })
    again = config_from_dict(cfg.to_dict())
    assert again == dataclasses.replace(
        cfg, regulator=dataclasses.replace(cfg.regulator, kernel_max=cfg.kernel_max)
    )


class TestRejection:
    def test_unknown_root_key(self):
        with pytest.raises(ConfigError, match="^trainin: unknown key$"):
            config_from_dict({"trainin": {}})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match=r"^data\.classez: unknown key$"):
            config_from_dict({"data": {"classez": 3}})

    def test_non_dict_root(self):
        with pytest.raises(ConfigError, match="config root"):
            config_from_dict([1, 2])

    def test_non_dict_section(self):
        with pytest.raises(ConfigError, match="views: expected an object"):
            config_from_dict({"views": True})

    def test_bool_fields_are_strict(self):
        # 1 is a common YAML/JSON slip for true; refuse it loudly
        with pytest.raises(ConfigError, match="expected a boolean"):
            config_from_dict({"views": {"noise": 1}})

    def test_int_fields_refuse_floats(self):
        with pytest.raises(ConfigError, match="expected int"):
            config_from_dict({"training": {"epochs": 2.5}})

    def test_float_fields_accept_ints(self):
        cfg = config_from_dict({"transforms": {"gamma": 2}})
        assert cfg.transforms.gamma == 2.0

    def test_bool_refused_for_int(self):
        with pytest.raises(ConfigError):
            config_from_dict({"training": {"epochs": True}})

    @pytest.mark.parametrize(
        "section,key,value,fragment",
        [
            ("transforms", "kernel_size", 4, "odd"),
            ("transforms", "perturbation", 3, "even"),
            ("transforms", "gamma", -1.0, "positive"),
            ("transforms", "scale_low", 0.0, "(0, 1]"),
            ("transforms", "scale_mosaic", 1.5, "(0, 1]"),
            ("provider", "kind", "remote", "synthetic"),
            ("fusion", "dropout", 1.0, "[0, 1)"),
            ("training", "batch_size", 1, ">= 2"),
            ("training", "epochs", -1, ">= 0"),
            ("regulator", "alpha", 0.0, "(0, 1)"),
            ("regulator", "kernel_min", 2, "odd"),
            ("data", "test_classes", 60, "test_classes"),
            ("data", "bank_levels", [2], "odd"),
            ("data", "bank_levels", [], "non-empty"),
            ("evaluation", "trials", 0, ">= 1"),
            ("evaluation", "gallery_sizes", [], "positive"),
            ("data", "seed", -1, "data.seed must be >= 0"),
            ("provider", "seed", -1, "provider.seed must be >= 0"),
            ("training", "seed", -1, "training.seed must be >= 0"),
            ("evaluation", "seed", -1, "evaluation.seed must be >= 0"),
            ("training", "adam_beta1", 1.0, "training.adam_beta1 must lie in [0, 1), got 1.0"),
            ("training", "adam_beta1", -1.0, "training.adam_beta1 must lie in [0, 1), got -1.0"),
            ("training", "adam_beta2", 2.0, "training.adam_beta2 must lie in [0, 1), got 2.0"),
            ("training", "adam_eps", -1, "training.adam_eps must be positive, got -1.0"),
            ("fusion", "layernorm_eps", -1, "fusion.layernorm_eps must be positive, got -1.0"),
            ("fusion", "fuse_eps", -1, "fusion.fuse_eps must be positive, got -1.0"),
            ("fusion", "fuse_eps", 0, "fusion.fuse_eps must be positive, got 0.0"),
            # 1 - alpha/2 rounds to 1, which has no normal quantile
            ("regulator", "alpha", 1e-17, "regulator.alpha must lie in (0, 1) and exceed 2**-53"),
            ("regulator", "alpha", 5e-324, "regulator.alpha must lie in (0, 1) and exceed 2**-53"),
            ("data", "bank_levels", [1, 4], "data.bank_levels[1] must be odd >= 1, got 4"),
            ("evaluation", "gallery_sizes", [0], "evaluation.gallery_sizes[0] must be positive, got 0"),
        ],
    )
    def test_validation_messages(self, section, key, value, fragment):
        with pytest.raises(ConfigError) as exc:
            config_from_dict({section: {key: value}})
        assert fragment in str(exc.value)

    def test_config_built_in_code_is_type_checked(self):
        base = RunConfig()
        cfg = dataclasses.replace(
            base, training=dataclasses.replace(base.training, epochs=np.int64(3))
        )
        with pytest.raises(ConfigError, match=r"^training\.epochs: expected int, got "):
            cfg.validate()

    @pytest.mark.parametrize("section,name,value", [
        ("training", "batch_size", 1),
        ("regulator", "alpha", 0.0),
        ("data", "bank_levels", (1, 4)),
        ("evaluation", "gallery_sizes", (0,)),
        ("transforms", "center", (1, 2.5)),
    ])
    def test_config_built_in_code_is_rule_checked(self, section, name, value):
        # validate() walks every field of a record built in code, and refuses
        # what config_from_dict refuses, with the same message
        base = RunConfig()
        cfg = dataclasses.replace(
            base, **{section: dataclasses.replace(getattr(base, section), **{name: value})}
        )
        with pytest.raises(ConfigError) as from_dict:
            config_from_dict(json.loads(json.dumps({section: {name: value}})))
        with pytest.raises(ConfigError) as from_code:
            cfg.validate()
        assert str(from_code.value) == str(from_dict.value)

    def test_smallest_alpha_with_a_quantile(self):
        alpha = math.nextafter(2.0**-53, 1.0)
        cfg = config_from_dict({"regulator": {"alpha": alpha}})
        assert math.isfinite(cfg.regulator.z_value)

    def test_all_views_disabled(self):
        with pytest.raises(ConfigError, match="at least one view"):
            config_from_dict({
                "views": {"foveated": False, "noise": False, "lowres": False,
                          "mosaic": False, "identity": False}
            })

    def test_temperature_ordering(self):
        with pytest.raises(ConfigError, match="temperature"):
            config_from_dict({"training": {"temperature_init": 2.0}})

    @pytest.mark.parametrize("center", [[100, 100], [32, 0], [0, 32], [-1, 5]])
    def test_center_outside_the_image(self, center):
        with pytest.raises(ConfigError, match=r"transforms\.center .* outside the 32x32 image"):
            config_from_dict({"transforms": {"center": center}, "data": {"image_size": 32}})

    def test_center_on_the_last_pixel(self):
        cfg = config_from_dict({"transforms": {"center": [31, 0]}, "data": {"image_size": 32}})
        assert cfg.transforms.center == (31, 0)

    def test_scale_collapsing_the_image(self):
        # floor(8 / 16) = 0 rows; floor(16 / 16) = 1 row is still an image
        with pytest.raises(ConfigError, match=r"transforms\.scale_mosaic 0\.0625 collapses the 8x8"):
            config_from_dict({"data": {"image_size": 8}})
        with pytest.raises(ConfigError, match=r"transforms\.scale_low 0\.1 collapses the 8x8"):
            config_from_dict({
                "transforms": {"scale_low": 0.1}, "views": {"mosaic": False},
                "data": {"image_size": 8},
            })
        assert config_from_dict({"data": {"image_size": 16}}).data.image_size == 16
        # a disabled view's scale is never applied, so it stays unchecked
        cfg = config_from_dict({
            "transforms": {"scale_low": 0.1}, "views": {"lowres": False, "mosaic": False},
            "data": {"image_size": 8},
        })
        assert cfg.views.enabled() == ["foveated", "noise"]

    def test_gallery_larger_than_the_test_set(self):
        data = {"classes": 12, "test_classes": 4}
        with pytest.raises(ConfigError, match="gallery size n=5 exceeds the test set size 4"):
            config_from_dict({"data": data, "evaluation": {"gallery_sizes": [4, 5]}})
        cfg = config_from_dict({"data": data, "evaluation": {"gallery_sizes": [4, 2]}})
        assert cfg.evaluation.gallery_sizes == (4, 2)

    def test_kernel_bounds_consistency(self):
        with pytest.raises(ConfigError, match="kernel bounds"):
            config_from_dict({
                "transforms": {"kernel_size": 75},
                "regulator": {"kernel_max": 51},
            })


class TestCoercions:
    def test_center_null_and_pair(self):
        assert config_from_dict({"transforms": {"center": None}}).transforms.center is None
        cfg = config_from_dict({"transforms": {"center": [3, 4]}})
        assert cfg.transforms.center == (3, 4)

    def test_center_bad_shape(self):
        with pytest.raises(ConfigError) as exc:
            config_from_dict({"transforms": {"center": [1, 2, 3]}})
        assert "transforms.center: expected null or a list of 2 int, got [1, 2, 3]" in str(exc.value)

    @pytest.mark.parametrize("center", [["a", 1], [None, 1], [1.7, 2], [1, True]])
    def test_center_entries_type_checked(self, center):
        with pytest.raises(ConfigError, match=r"transforms\.center\[[01]\]"):
            config_from_dict({"transforms": {"center": center}})

    def test_kernel_max_null_resolves_to_double(self):
        cfg = config_from_dict({"transforms": {"kernel_size": 31}})
        assert cfg.regulator.kernel_max is None
        assert cfg.kernel_max == 61
        assert cfg.to_dict()["regulator"]["kernel_max"] == 61

    def test_list_fields_become_tuples(self):
        cfg = config_from_dict({"evaluation": {"gallery_sizes": [10, 5]}})
        assert cfg.evaluation.gallery_sizes == (10, 5)
        with pytest.raises(ConfigError, match="expected a list"):
            config_from_dict({"evaluation": {"gallery_sizes": 10}})
        with pytest.raises(ConfigError, match="data.bank_levels: expected a list of int, got 5"):
            config_from_dict({"data": {"bank_levels": 5}})

    def test_list_entries_type_checked(self):
        with pytest.raises(ConfigError, match=r"gallery_sizes\[1\]"):
            config_from_dict({"evaluation": {"gallery_sizes": [10, "5"]}})


DEFAULTS = RunConfig().to_dict()
EVERY_FIELD = [(section, name) for section in DEFAULTS for name in DEFAULTS[section]]


@pytest.mark.parametrize("section,name", EVERY_FIELD)
def test_every_field_parses_its_default(section, name):
    raw = json.loads(json.dumps({section: {name: DEFAULTS[section][name]}}))
    parsed = getattr(getattr(config_from_dict(raw), section), name)
    default = getattr(getattr(RunConfig(), section), name)
    if (section, name) == ("regulator", "kernel_max"):
        default = RunConfig().kernel_max  # to_dict writes the default None resolved
    # repr tells 1 from 1.0, True from 1 and a tuple from a list
    assert repr(parsed) == repr(default)


FLOAT_FIELDS = [
    (section.name, f.name)
    for section in dataclasses.fields(RunConfig)
    for f in dataclasses.fields(section.default_factory)
    if isinstance(f.default, float)
]


@pytest.mark.parametrize("section,name", FLOAT_FIELDS)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400])
def test_float_fields_must_be_finite(section, name, value):
    # NaN and Infinity are JSON literals that Python's json module accepts
    raw = json.loads(json.dumps({section: {name: value}}))
    with pytest.raises(ConfigError, match=f"{section}\\.{name}: expected a finite number"):
        config_from_dict(raw)


# one value per integer field just past int64 that passes the field's own
# rule; a tuple holds it as its last entry
BEYOND_INT64 = {
    ("transforms", "kernel_size"): 2**63 + 1,
    ("transforms", "perturbation"): 2**64,
    ("transforms", "center"): [0, 2**63],
    ("provider", "dim_feature"): 2**63,
    ("fusion", "dim_latent"): 2**63,
    ("fusion", "dim_hidden"): 2**63,
    ("fusion", "dim_bottleneck"): 2**63,
    ("training", "epochs"): 2**63,
    ("training", "batch_size"): 2**63,
    ("regulator", "start_epoch"): 2**63,
    ("regulator", "kernel_min"): 2**63 + 1,
    ("regulator", "kernel_max"): 2**63 + 1,
    ("data", "classes"): 2**63,
    ("data", "test_classes"): 2**63,
    ("data", "train_samples_per_class"): 2**63,
    ("data", "image_size"): 2**63,
    ("data", "dim_neural"): 2**63,
    ("data", "bank_levels"): [1, 2**63 + 1],
    ("evaluation", "gallery_sizes"): [2**63],
    ("evaluation", "trials"): 2**63,
}
SEEDS = [("provider", "seed"), ("training", "seed"), ("data", "seed"), ("evaluation", "seed")]


def holds_ints(hint) -> bool:
    return hint is int or any(holds_ints(a) for a in typing.get_args(hint))


def test_every_int_field_is_checked_or_a_seed():
    ints = {
        (section.name, name)
        for section in dataclasses.fields(RunConfig)
        for name, hint in typing.get_type_hints(section.default_factory).items()
        if holds_ints(hint)
    }
    assert ints == set(BEYOND_INT64) | set(SEEDS)


@pytest.mark.parametrize("section,name", list(BEYOND_INT64))
def test_int_fields_must_fit_int64(section, name):
    value = BEYOND_INT64[section, name]
    where, shown = f"{section}.{name}", value
    if isinstance(value, list):
        where, shown = f"{where}[{len(value) - 1}]", value[-1]
    with pytest.raises(ConfigError) as caught:
        config_from_dict({section: {name: value}})
    assert str(caught.value) == f"{where} must fit int64, got {shown}"


def test_int64_holds_its_largest_value_and_nothing_below_its_smallest():
    assert config_from_dict({"training": {"epochs": 2**63 - 1}}).training.epochs == 2**63 - 1
    with pytest.raises(ConfigError, match=r"^transforms\.center\[0\] must fit int64, got "
                                          r"-9223372036854775809$"):
        config_from_dict({"transforms": {"center": [-(2**63) - 1, 0]}})


def test_resolved_kernel_max_must_fit_int64():
    # the manifest writes kernel_max resolved, and must load again
    with pytest.raises(ConfigError, match="^regulator.kernel_max must fit int64, got "
                                          f"{2**63 + 1}$"):
        config_from_dict({"transforms": {"kernel_size": 2**62 + 1}})


def test_arrays_numpy_cannot_describe_are_refused_past_their_bound():
    # NumPy describes at most (2**63 - 1) / itemsize elements in one array: the
    # float64 canvas holds 3 * image_size**2, the float32 bank features
    # samples * levels * views * dim_feature (530 * 3 * 4 by default)
    side = math.isqrt((2**63 - 1) // 8 // 3)
    assert config_from_dict({"data": {"image_size": side}}).data.image_size == side
    with pytest.raises(ConfigError, match=rf"^3 \* data\.image_size\*\*2 = 3 \* {side + 1}\*\*2 = "
                                          r"\d+ elements of the float64 canvas; one array holds "
                                          r"at most 1152921504606846975$"):
        config_from_dict({"data": {"image_size": side + 1}})
    dim = (2**63 - 1) // 4 // (530 * 3 * 4)
    assert config_from_dict({"provider": {"dim_feature": dim}}).provider.dim_feature == dim
    with pytest.raises(ConfigError, match=r"^samples \* len\(data\.bank_levels\) \* views \* "
                                          rf"provider\.dim_feature = 530 \* 3 \* 4 \* {dim + 1} = "
                                          r"\d+ elements of the float32 bank features"):
        config_from_dict({"provider": {"dim_feature": dim + 1}})


# one enabled view at one bank level, so the float64 blocks below pass their
# bound before the float32 bank features do
_ONE_FEATURE_ROW = {"views": {"noise": False, "lowres": False, "mosaic": False},
                    "data": {"bank_levels": [1]}}


@pytest.mark.parametrize("section,name,other,formula,array", [
    ("provider", "dim_feature", 530, r"samples \* provider\.dim_feature = 530 \* {}",
     "float64 clean-image features"),
    ("data", "dim_neural", 530, r"samples \* data\.dim_neural = 530 \* {}",
     "float64 neural-noise block"),
    ("evaluation", "trials", 50, r"evaluation\.trials \* data\.test_classes = {} \* 50",
     "int64 rank table"),
], ids=["clean", "neural-noise", "rank-table"])
def test_eight_byte_blocks_are_refused_past_their_bound(section, name, other, formula, array):
    # 530 samples by default, and 50 test classes
    largest = (2**63 - 1) // 8 // other
    limit = 1152921504606846975

    def raw(value):
        out = json.loads(json.dumps(_ONE_FEATURE_ROW))
        out.setdefault(section, {})[name] = value
        return out

    assert getattr(getattr(config_from_dict(raw(largest)), section), name) == largest
    with pytest.raises(ConfigError, match=rf"^{formula.format(largest + 1)} = \d+ elements of the "
                                          rf"{array}; one array holds at most {limit}$"):
        config_from_dict(raw(largest + 1))


def bench_configs(monkeypatch) -> dict:
    """Every config bench/run.py writes at seed 0, by workload and recipe;
    run.py imports its sibling tracer.py by name."""
    modules = {}
    for name in ("tracer", "run"):
        spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "bench" / f"{name}.py")
        modules[name] = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, modules[name])  # put back after the test
        spec.loader.exec_module(modules[name])
    run = modules["run"]
    return {f"bench {w} {r}": run.build_config(w, r, 0, "data")
            for w in run.WORKLOADS for r in run.RECIPES}


def test_load_config_returns_the_fully_walked_config(tmp_path, monkeypatch):
    # config_from_dict leaves each field's rule to parse_record's one walk
    # and applies the joint rules; it must give what the full walk gives
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    raws = {
        "tiny": tiny_config().to_dict(),
        "readme": json.loads(readme.split("cat > smoke.json <<'EOF'\n", 1)[1].split("\nEOF", 1)[0]),
        **bench_configs(monkeypatch),
    }
    for name, raw in raws.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(raw))
        assert load_config(path) == (parse_record(RunConfig, raw, "", ConfigError).validate(), None)


@pytest.mark.parametrize("section,name", SEEDS)
def test_seeds_take_any_size(section, name):
    # a seed only feeds a SeedSequence, which takes any non-negative int
    cfg = config_from_dict({section: {name: 2**70}})
    assert getattr(getattr(cfg, section), name) == 2**70


# numeric fields that only the rules comparing two or more fields check
CROSS_FIELD_ONLY = {
    ("transforms", "center"),
    ("training", "temperature_init"),
    ("training", "temperature_min"),
    ("training", "temperature_max"),
    ("regulator", "kernel_max"),
    ("data", "classes"),
    ("data", "test_classes"),
}


def holds_numbers(hint) -> bool:
    """int or float, or a tuple or optional of them."""
    return hint in (int, float) or any(holds_numbers(a) for a in typing.get_args(hint))


def test_every_numeric_field_declares_its_range():
    # a new int or float field gets a range in its annotation, or joins the list
    unranged = {
        (section.name, name)
        for section in dataclasses.fields(RunConfig)
        for name, hint in typing.get_type_hints(section.default_factory, include_extras=True).items()
        if typing.get_origin(hint) is not typing.Annotated and holds_numbers(hint)
    }
    assert unranged == CROSS_FIELD_ONLY


class TestViews:
    def test_enabled_order_is_fixed(self):
        views = ViewsConfig(identity=True)
        assert views.enabled() == ["identity", "foveated", "noise", "lowres", "mosaic"]
        assert views.count == 5

    def test_single_view(self):
        views = ViewsConfig(foveated=False, noise=False, lowres=False,
                            mosaic=True, identity=False)
        assert views.enabled() == ["mosaic"]


class TestHash:
    def test_stable_across_equal_configs(self):
        assert config_hash(RunConfig()) == config_hash(config_from_dict({}))

    def test_sensitive_to_any_field(self):
        base = config_hash(RunConfig())
        bumped = config_from_dict({"training": {"seed": 43}})
        assert config_hash(bumped) != base

    def test_is_hex_sha256(self):
        digest = config_hash(RunConfig())
        assert len(digest) == 64
        int(digest, 16)


class TestLoadConfig:
    def test_reads_plain_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "data": {"classes": 9, "test_classes": 2}, "evaluation": {"gallery_sizes": [2]},
        }))
        cfg, seed = load_config(path, "train")
        assert cfg.data.classes == 9
        assert seed is None

    def test_unwraps_run_manifest(self, tmp_path):
        cfg = config_from_dict({
            "data": {"classes": 9, "test_classes": 2}, "evaluation": {"gallery_sizes": [2]},
        })
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"command": "train", "seed": 1, "config": cfg.to_dict()}))
        assert load_config(path)[0].data.classes == 9

    def test_manifest_seed_only_for_its_own_command(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"command": "train", "seed": 17, "config": {}}))
        assert load_config(path, "train") == (RunConfig(), 17)
        assert load_config(path, "evaluate") == (RunConfig(), None)
        assert load_config(path) == (RunConfig(), None)

    @pytest.mark.parametrize("seed", ["17", 1.5, True, [1]])
    def test_malformed_manifest_seed(self, tmp_path, seed):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"command": "train", "seed": seed, "config": {}}))
        with pytest.raises(ConfigError, match="seed"):
            load_config(path, "train")

    def test_no_path_gives_defaults(self):
        assert load_config(None, "train") == (RunConfig(), None)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.json")

    @pytest.mark.parametrize(
        "text", ["{not json", "[" * 100_000 + "]" * 100_000], ids=["malformed", "nested-too-deep"]
    )
    def test_invalid_json(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)


class TestAblationLadder:
    def test_six_rungs_in_order(self):
        names = [name for name, _ in ablation_ladder(RunConfig())]
        assert names == [
            "baseline", "dyn", "dyn_noise", "dyn_noise_res",
            "dyn_noise_res_mos", "dyn_noise_res_mos_el",
        ]

    def test_baseline_is_identity_only(self):
        _, cfg = ablation_ladder(RunConfig())[0]
        assert cfg.views.enabled() == ["identity"]
        assert cfg.regulator.enabled is False
        assert cfg.fusion.evidence is False

    def test_views_accumulate(self):
        counts = [cfg.views.count for _, cfg in ablation_ladder(RunConfig())]
        assert counts == [1, 1, 2, 3, 4, 4]

    def test_only_last_rung_uses_evidence(self):
        flags = [cfg.fusion.evidence for _, cfg in ablation_ladder(RunConfig())]
        assert flags == [False, False, False, False, False, True]

    def test_regulation_follows_foveation(self):
        for _, cfg in ablation_ladder(RunConfig()):
            assert cfg.regulator.enabled == cfg.views.foveated

    def test_rungs_carry_base_settings(self):
        base = config_from_dict({"training": {"seed": 99}})
        for _, cfg in ablation_ladder(base):
            assert cfg.training.seed == 99

    def test_distinct_hashes(self):
        hashes = {config_hash(cfg) for _, cfg in ablation_ladder(RunConfig())}
        assert len(hashes) == 6
