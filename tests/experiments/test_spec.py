"""ExperimentSpec: roundtrip, fingerprints, matrix expansion, validation."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import ExperimentSpec, platform_for_memory
from repro.experiments.cost import COST_RATE_FIELDS
from repro.experiments.spec import (
    KNOB_TYPES,
    MAX_L2_BYTES,
    MEASURE_KNOBS,
    MEMORY_REFERENCE_MB,
    MIN_L2_BYTES,
    SERVE_KNOBS,
    SPEC_SCHEMA,
)

SRC = str(Path(__file__).resolve().parents[2] / "src")


def sweep_spec(**overrides):
    document = {
        "name": "sweep",
        "kind": "measure",
        "base": {"function": "hotel-profile-go", "db": "cassandra",
                 "time_scale": 2048, "space_scale": 32},
        "axes": [["memory_mb", [256, 512]], ["isa", ["riscv", "x86"]]],
        "cost": {"usd_per_kwh": 0.25},
    }
    document.update(overrides)
    return ExperimentSpec.from_dict(document)


class TestRoundtrip:
    def test_dict_roundtrip_is_identity(self):
        spec = sweep_spec()
        document = spec.as_dict()
        again = ExperimentSpec.from_dict(document)
        assert again == spec
        assert again.as_dict() == document
        assert again.fingerprint() == spec.fingerprint()

    def test_as_dict_resolves_defaults(self):
        spec = ExperimentSpec.from_dict({"name": "mini", "kind": "measure"})
        document = spec.as_dict()
        assert document["schema"] == SPEC_SCHEMA
        assert document["base"] == dict(MEASURE_KNOBS)
        assert document["axes"] == []
        assert document["cost"] == {}

    def test_json_wire_form_roundtrips(self):
        spec = sweep_spec()
        wire = json.dumps(spec.as_dict())
        assert ExperimentSpec.from_dict(json.loads(wire)) == spec

    def test_yaml_roundtrip(self):
        yaml = pytest.importorskip("yaml")
        spec = sweep_spec()
        again = ExperimentSpec.from_yaml(yaml.safe_dump(spec.as_dict()))
        assert again == spec

    def test_schema_mismatch_rejected(self):
        document = sweep_spec().as_dict()
        document["schema"] = "repro.experiments.spec/v99"
        with pytest.raises(ValueError, match="schema"):
            ExperimentSpec.from_dict(document)

    def test_unknown_top_level_key_rejected(self):
        document = sweep_spec().as_dict()
        document["extra"] = 1
        with pytest.raises(ValueError, match="unknown spec keys"):
            ExperimentSpec.from_dict(document)


class TestFingerprint:
    def test_stable_across_spellings(self):
        via_dict = sweep_spec()
        via_ctor = ExperimentSpec(
            name="sweep", kind="measure",
            base={"function": "hotel-profile-go", "db": "cassandra",
                  "time_scale": 2048, "space_scale": 32},
            axes=(("memory_mb", (256, 512)), ("isa", ("riscv", "x86"))),
            cost={"usd_per_kwh": 0.25})
        assert via_ctor.fingerprint() == via_dict.fingerprint()
        assert via_ctor == via_dict

    def test_sensitive_to_every_part(self):
        spec = sweep_spec()
        assert spec.with_base(seed=1).fingerprint() != spec.fingerprint()
        assert sweep_spec(name="other").fingerprint() != spec.fingerprint()
        assert sweep_spec(cost={}).fingerprint() != spec.fingerprint()
        reordered = sweep_spec(axes=[["isa", ["riscv", "x86"]],
                                     ["memory_mb", [256, 512]]])
        assert reordered.fingerprint() != spec.fingerprint()

    def test_catalog_perf_cost_pin(self):
        # The committed artifact embeds this digest; a spec change must
        # consciously regenerate benchmarks/output/experiments/.
        from repro.experiments import get_experiment

        assert get_experiment("perf-cost").fingerprint() == \
            "22aa675dcd208d85"


class TestExpansion:
    def test_declared_order_last_axis_fastest(self):
        points = sweep_spec().expand()
        assert len(points) == 4
        assert [p.settings for p in points] == [
            {"memory_mb": 256, "isa": "riscv"},
            {"memory_mb": 256, "isa": "x86"},
            {"memory_mb": 512, "isa": "riscv"},
            {"memory_mb": 512, "isa": "x86"},
        ]
        assert points[0].knobs["function"] == "hotel-profile-go"
        assert points[0].label() == "memory_mb=256 isa=riscv"

    def test_no_axes_is_a_single_point(self):
        spec = ExperimentSpec(name="solo", kind="measure")
        points = spec.expand()
        assert len(points) == 1 == spec.point_count()
        assert points[0].settings == {}

    def test_measurement_spec_lowering(self):
        points = sweep_spec().expand()
        lowered = points[0].measurement_spec()
        assert lowered.function == "hotel-profile-go"
        assert lowered.isa == "riscv"
        assert lowered.db == "cassandra"
        assert lowered.scale.time == 2048 and lowered.scale.space == 32
        # 256 MB buys half the canonical L2 slice; 512 MB is canonical
        # (platform None keeps measurement digests byte-identical).
        assert lowered.platform.mem_config.l2_size == 256 * 1024
        assert points[2].measurement_spec().platform is None

    def test_hotel_db_defaults_to_cassandra(self):
        spec = ExperimentSpec(name="h", kind="measure",
                              base={"function": "hotel-geo-go"})
        assert spec.expand()[0].measurement_spec().db == "cassandra"
        plain = ExperimentSpec(name="p", kind="measure",
                               base={"function": "fibonacci-go",
                                     "db": "mongodb"})
        assert plain.expand()[0].measurement_spec().db is None

    def test_serve_points_do_not_lower(self):
        spec = ExperimentSpec(name="s", kind="serve")
        with pytest.raises(ValueError, match="measure-kind"):
            spec.expand()[0].measurement_spec()


class TestMemoryPlatform:
    def test_reference_grant_is_canonical(self):
        assert platform_for_memory("riscv", MEMORY_REFERENCE_MB) is None

    def test_slice_scales_and_clamps(self):
        assert platform_for_memory("riscv", 256).mem_config.l2_size \
            == 256 * 1024
        assert platform_for_memory("x86", 2048).mem_config.l2_size \
            == 2048 * 1024
        assert platform_for_memory("riscv", 16).mem_config.l2_size \
            == MIN_L2_BYTES
        assert platform_for_memory("riscv", 65536).mem_config.l2_size \
            == MAX_L2_BYTES

    def test_only_l2_differs_from_canonical(self):
        from repro.core.config import platform_for

        base = platform_for("riscv")
        override = platform_for_memory("riscv", 1024)
        assert override.isa == base.isa
        assert override.o3_config is base.o3_config
        assert override.mem_config.l1d_size == base.mem_config.l1d_size


class TestValidation:
    def test_rejects_bad_inputs(self):
        cases = [
            (dict(name="", kind="measure"), "name"),
            (dict(name="two words", kind="measure"), "whitespace"),
            (dict(name="x", kind="drive"), "kind"),
            (dict(name="x", kind="measure", base={"rps": 9.0}), "knob"),
            (dict(name="x", kind="measure",
                  axes=[("nope", [1])]), "axis"),
            (dict(name="x", kind="measure",
                  axes=[("isa", [])]), "at least one"),
            (dict(name="x", kind="measure",
                  axes=[("isa", ["riscv"]), ("isa", ["x86"])]), "duplicate"),
            (dict(name="x", kind="measure",
                  cost={"usd_per_lightyear": 1.0}), "cost rate"),
            (dict(name="x", kind="measure",
                  base={"memory_mb": 0}), "memory_mb"),
            (dict(name="x", kind="serve",
                  base={"profile": "tsunami"}), "profile"),
            (dict(name="x", kind="serve",
                  base={"placement": "everywhere"}), "placement"),
            (dict(name="x", kind="measure",
                  axes=[("memory_mb", [[128]])]), "scalar"),
        ]
        for kwargs, fragment in cases:
            with pytest.raises(ValueError, match=fragment):
                ExperimentSpec(**kwargs)

    def test_immutable(self):
        spec = sweep_spec()
        with pytest.raises(AttributeError):
            spec.name = "renamed"
        base = spec.base
        base["seed"] = 99
        assert spec.base["seed"] == 0  # accessor returns a copy

    def test_with_base_override(self):
        spec = sweep_spec()
        reseeded = spec.with_base(seed=7)
        assert reseeded.seed == 7
        assert reseeded.name == spec.name
        assert reseeded.axes == spec.axes
        assert spec.seed == 0

    def test_knob_types_cover_both_kinds(self):
        knobs = set(MEASURE_KNOBS) | set(SERVE_KNOBS)
        assert set(KNOB_TYPES) == knobs
        for defaults in (MEASURE_KNOBS, SERVE_KNOBS):
            for knob, value in defaults.items():
                assert isinstance(value, KNOB_TYPES[knob]), knob

    @pytest.mark.parametrize("document, fragment", [
        ({"axes": [["seed"]]}, "axes"),
        ({"axes": "seed"}, "axes"),
        ({"axes": [["seed", 3]]}, "seed"),
        ({"base": ["seed"]}, "base"),
        ({"cost": [["pue", 1.2]]}, "cost"),
        ({"base": {"memory_mb": True}}, "memory_mb"),
        ({"base": {"seed": "x"}}, "seed"),
        ({"kind": "serve", "base": {"nodes": "3"}}, "nodes"),
        ({"base": {"function": "no-such-function"}}, "function"),
        ({"base": {"isa": "mips"}}, "isa"),
        ({"base": {"sampling": "interval=x"}}, "sampling"),
        ({"base": {"space_scale": 24}}, "space_scale"),
        ({"cost": {"pue": "high"}}, "pue"),
    ])
    def test_malformed_documents_name_the_key(self, document, fragment):
        document = dict({"name": "bad", "kind": "measure"}, **document)
        with pytest.raises(ValueError, match=fragment):
            ExperimentSpec.from_dict(document)

    @pytest.mark.parametrize("document, message", [
        ({"axes": [["target_concurrency", [1, 0]]]},
         "^target_concurrency must be >= 1"),
        ({"base": {"arrivals": 0}}, "^arrivals must be >= 1, got 0"),
        ({"base": {"rps": 0.0}}, r"^rps must be > 0, got 0\.0"),
        ({"base": {"min_instances": 9}},
         "^need 0 <= min_instances <= max_instances"),
        ({"base": {"nodes": 3, "node_fail": 1.5}},
         r"^node_fail must be within \[0, 1\], got 1\.5"),
        ({"base": {"nodes": -1}}, "^nodes must be >= 0"),
    ], ids=["target_concurrency", "arrivals", "rps", "min_instances",
            "node_fail", "nodes"])
    def test_serve_knob_ranges_fail_when_the_spec_is_built(self, document,
                                                           message):
        document = dict({"name": "bad", "kind": "serve"}, **document)
        with pytest.raises(ValueError, match=message):
            ExperimentSpec.from_dict(document)

    def test_malformed_yaml_is_a_value_error(self):
        pytest.importorskip("yaml")
        with pytest.raises(ValueError, match="YAML"):
            ExperimentSpec.from_yaml("name: x\nkind: [measure\n")


# -- the loader fuzz test --------------------------------------------------

FUZZ_DOCUMENTS = {
    "measure": {
        "name": "fuzz", "kind": "measure",
        "base": {"function": "fibonacci-go", "time_scale": 2048,
                 "space_scale": 32},
        "axes": [["seed", [0, 1]], ["isa", ["riscv", "x86"]]],
        "cost": {"pue": 1.2},
    },
    "serve": {
        "name": "fuzz", "kind": "serve",
        "base": {"function": "fibonacci-go", "arrivals": 20},
        "axes": [["target_concurrency", [1, 2]]],
    },
}
KNOBS = {"measure": MEASURE_KNOBS, "serve": SERVE_KNOBS}
NAMES = st.text(alphabet="abcdefgh_", min_size=1, max_size=6)
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 5000),
    st.floats(-10.0, 10.0, allow_nan=False), st.text(max_size=8),
    st.sampled_from(["riscv", "x86", "redis", "fast", "rvv256",
                     "hotel-geo-go", "spread", "burst", "interval=64"]))
JSON_VALUES = st.one_of(JSON_SCALARS,
                        st.lists(JSON_SCALARS, max_size=3),
                        st.dictionaries(NAMES, JSON_SCALARS, max_size=2))


@st.composite
def malformed_documents(draw):
    """A valid document with one part broken, and the key names an
    error about it may use."""
    kind = draw(st.sampled_from(sorted(FUZZ_DOCUMENTS)))
    document = copy.deepcopy(FUZZ_DOCUMENTS[kind])
    knobs = KNOBS[kind]
    mutation = draw(st.sampled_from(
        ["top-key", "top-value", "shape", "unknown-knob", "knob", "axis",
         "axis-entry", "cost"]))
    if mutation == "top-key":
        key = draw(NAMES.filter(lambda name: name not in document))
        document[key] = draw(JSON_VALUES)
        return document, (key,)
    if mutation == "top-value":
        key = draw(st.sampled_from(["name", "title", "kind", "schema"]))
        document[key] = draw(JSON_VALUES.filter(
            lambda value: value not in ("measure", "serve")))
        return document, (key,)
    if mutation == "shape":
        key = draw(st.sampled_from(["base", "axes", "cost"]))
        container = list if key == "axes" else dict
        document[key] = draw(JSON_VALUES.filter(
            lambda value: not isinstance(value, container)))
        return document, (key,)
    if mutation == "unknown-knob":
        key = draw(NAMES.filter(lambda name: name not in knobs))
        document["base"][key] = draw(JSON_SCALARS)
        return document, (key,)
    if mutation == "knob":
        knob = draw(st.sampled_from(sorted(knobs)))
        document["base"][knob] = draw(JSON_VALUES)
        return document, (knob,)
    if mutation == "axis":
        knob = draw(st.sampled_from(sorted(knobs)))
        document["axes"] = [[knob, draw(JSON_VALUES)]]
        return document, (knob,)
    if mutation == "axis-entry":
        document["axes"] = [draw(JSON_VALUES)]
        return document, ("axes", "axis")
    key = draw(st.one_of(st.sampled_from(COST_RATE_FIELDS), NAMES))
    document["cost"] = {key: draw(JSON_VALUES)}
    return document, (key,)


@given(case=malformed_documents())
@settings(max_examples=400)
def test_loader_fuzz(case):
    """A malformed document either builds a spec whose measure points
    lower, or raises a ValueError that names the broken key."""
    document, names = case
    try:
        spec = ExperimentSpec.from_dict(document)
    except ValueError as error:
        assert any(name in str(error) for name in names), (names, error)
        return
    if spec.kind == "measure":
        for point in spec.expand():
            point.measurement_spec()


def test_cli_reports_a_malformed_spec_without_a_traceback(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "bad", "kind": "measure",
                                "base": {"bogus": 1}}))
    done = subprocess.run(
        [sys.executable, "-m", "repro", "experiment", "run", "--spec",
         str(path)], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC))
    assert done.returncode != 0
    assert "unknown measure knob 'bogus'" in done.stderr
    assert "Traceback" not in done.stderr
