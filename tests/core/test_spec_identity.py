"""Result-cache identity of a measurement spec.

Every cached measurement is served under the SHA-256 digest of its
spec.  The literal digests below were taken from the hand-written key
builder that field metadata replaced; a change to how the key is built
must leave every one of them unchanged, or warm caches would silently
miss.  The other tests pin what the key must mean: every declared field
moves it (a bypass field removes it), equal specs share it and
different specs never do, and specs survive the pickling that carries
them to pool workers.
"""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import parallel
from repro.core.config import platform_for
from repro.core.parallel import run_measurement_matrix
from repro.core.scale import BENCH, SimScale
from repro.core.spec import BYPASS, MeasurementSpec
from repro.experiments.spec import ExperimentSpec, platform_for_memory
from repro.faults import FaultPlan, FaultSpec
from repro.serverless.platform import ClusterConfig
from repro.serverless.scaler import ScalingConfig
from repro.sim.isa.vector import VectorConfig
from repro.sim.sampling import SamplingConfig

SMALL = SimScale(time=2048, space=32)


def pinned_specs():
    """The pinned points: every key component and both int conversions."""
    scaling = ScalingConfig(panic_threshold=3)
    sampling = SamplingConfig.parse("fast")
    cluster = ClusterConfig(nodes=3, node_fail_rate=0)
    vector = VectorConfig.parse("rvv256")
    return {
        "default": MeasurementSpec(function="fibonacci-go"),
        "x86-small-seed3-req4": MeasurementSpec(
            function="fibonacci-go", isa="x86", scale=SMALL, seed=3,
            requests=4),
        "hotel-db": MeasurementSpec(function="hotel-geo-go", db="redis"),
        "platform-256mb": MeasurementSpec(
            function="fibonacci-go",
            platform=platform_for_memory("riscv", 256)),
        "platform-stock": MeasurementSpec(function="fibonacci-go",
                                          platform=platform_for("riscv")),
        "scaling-int-panic": MeasurementSpec(function="fibonacci-go",
                                             scaling=scaling),
        "sampling-fast": MeasurementSpec(function="fibonacci-go",
                                         sampling=sampling),
        "cluster-3-int-fail": MeasurementSpec(function="fibonacci-go",
                                              cluster=cluster),
        "vector-rvv256": MeasurementSpec(function="fibonacci-go",
                                         vector=vector),
        "all-optional": MeasurementSpec(
            function="fibonacci-go", scaling=scaling, sampling=sampling,
            cluster=cluster, vector=vector),
    }


#: SHA-256 result-cache digests of :func:`pinned_specs`.
PINNED_DIGESTS = {
    "default":
        "dc24f6a202997eb0667aeab7cac37478b9519d9354255605e68242a5ef6fbaaa",
    "x86-small-seed3-req4":
        "b4de996555774c5156215f1909e45a4cd88b851f9f4a8e69c904106aace7166e",
    "hotel-db":
        "aa4283f8149731c1536161217f41688cf28dc349a5fd5382274310b82b1aadbf",
    "platform-256mb":
        "8451c977f7cb3a667b1676b967eaca1533fe959465fa34dd3e647bdc379fe403",
    "platform-stock":
        "dc24f6a202997eb0667aeab7cac37478b9519d9354255605e68242a5ef6fbaaa",
    "scaling-int-panic":
        "bcaa2957266e98bde32f8ecc0dcfdb80ebf7687f6177dcb4dd4ca713452b0918",
    "sampling-fast":
        "608780ca5d9fef679e810b57ecfa3cc687cd584aa0b520733d0b67517be672a6",
    "cluster-3-int-fail":
        "fabe757ed5823b7c38424acb918776046fd74dd69b14c08f0bac559b257b57e8",
    "vector-rvv256":
        "9a5a6081e89ccbb67f346b66ae2b4b94e559d36f3eb3c185dfafa37153588794",
    "all-optional":
        "d7d37338226ebb6b0e249626a8a9fa295733661a4c681d23762d14ab897109ca",
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_digest_is_pinned(name):
    assert pinned_specs()[name].digest() == PINNED_DIGESTS[name]


class _RecordingCache:
    """A result cache that records which digests were asked for."""

    def __init__(self):
        self.gets = []
        self.puts = []

    def get(self, digest):
        self.gets.append(digest)
        return None

    def put(self, digest, measurement):
        self.puts.append(digest)
        return True


@pytest.mark.parametrize("bypass", [
    {"trace": True},
    {"faults": FaultPlan.chaos(seed=1)},
], ids=["trace", "faults"])
def test_bypass_specs_never_reach_the_cache(monkeypatch, bypass):
    monkeypatch.setattr(parallel, "execute_task", lambda spec: spec)
    plain = MeasurementSpec(function="fibonacci-go")
    bypassed = MeasurementSpec(function="fibonacci-go", **bypass)
    cache = _RecordingCache()
    results = run_measurement_matrix([bypassed, plain], jobs=1, cache=cache)
    assert results == [bypassed, plain]
    assert bypassed.digest() is None
    assert cache.gets == cache.puts == [PINNED_DIGESTS["default"]]


# -- one definition: every declared field is in the key -------------------

#: A second value per MeasurementSpec field, away from the base spec's.
#: A field added to the spec without an entry here fails the coverage
#: tests below.
SECOND_VALUES = {
    "function": "aes-go",
    "isa": "x86",
    "scale": SMALL,
    "seed": 1,
    "requests": 4,
    "db": "redis",
    "platform": platform_for_memory("riscv", 256),
    "scaling": ScalingConfig(),
    "sampling": SamplingConfig(),
    "cluster": ClusterConfig(),
    "vector": VectorConfig(),
    "trace": True,
    "faults": FaultPlan(),
}

SPEC_FIELDS = {item.name: item for item in dataclasses.fields(MeasurementSpec)}


def test_every_field_has_a_second_value():
    assert sorted(SECOND_VALUES) == sorted(SPEC_FIELDS)


@pytest.mark.parametrize("name", list(SPEC_FIELDS))
def test_swapping_a_field_moves_the_digest(name):
    base = MeasurementSpec(function="fibonacci-go")
    swapped = dataclasses.replace(base, **{name: SECOND_VALUES[name]})
    assert swapped != base
    if SPEC_FIELDS[name].metadata["key"] == BYPASS:
        assert swapped.digest() is None
    else:
        assert swapped.digest() not in (None, base.digest())


def test_rebuilt_platforms_compare_by_value():
    """Two lowerings of one perf-cost point build two PlatformConfig
    objects for the same microarchitecture; the specs must still be one
    key, one hash and one equality class."""
    first = platform_for_memory("riscv", 128)
    second = platform_for_memory("riscv", 128)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    [point] = ExperimentSpec(name="p", kind="measure",
                             base={"memory_mb": 128}).expand()
    one, two = point.measurement_spec(), point.measurement_spec()
    assert one == two and hash(one) == hash(two)
    assert one.digest() == two.digest()


# -- the property: equal specs share a key, different ones never do -------

FUNCTIONS = ("fibonacci-go", "aes-go", "hotel-geo-go")
FIELD_VALUES = {
    "function": st.sampled_from(FUNCTIONS),
    "isa": st.sampled_from(("riscv", "x86", "arm")),
    "scale": st.sampled_from((BENCH, SMALL, SimScale(time=2048, space=16))),
    "seed": st.integers(0, 3),
    "requests": st.integers(1, 12),
    "db": st.sampled_from((None, "", "redis", "cassandra")),
    "platform": st.sampled_from((None, "stock", 256, 1024)),
    "scaling": st.sampled_from((None, ScalingConfig(),
                                ScalingConfig(panic_threshold=3),
                                ScalingConfig(queue_capacity=32))),
    "sampling": st.sampled_from((None, SamplingConfig(),
                                 SamplingConfig.parse("fast"),
                                 SamplingConfig(jitter=False))),
    "cluster": st.sampled_from((None, ClusterConfig(),
                                ClusterConfig(nodes=3, node_fail_rate=0),
                                ClusterConfig(nodes=3, node_fail_rate=0.5))),
    "vector": st.sampled_from((None, VectorConfig(),
                               VectorConfig.parse("rvv512"))),
}


def build(choices):
    """A cacheable spec; ``platform`` is drawn as a token because the
    platform depends on the drawn ISA."""
    choices = dict(choices)
    token = choices.pop("platform")
    if token == "stock":
        platform = platform_for(choices["isa"])
    elif token is None:
        platform = None
    else:
        platform = platform_for_memory(choices["isa"], token)
    return MeasurementSpec(platform=platform, **choices)


def canonical(spec):
    """The spec's values under the two equivalences the key has always
    had: ``db`` None and "", and ``platform`` None and the ISA's stock
    platform."""
    values = {name: getattr(spec, name) for name in FIELD_VALUES}
    values["db"] = spec.db or ""
    values["platform"] = spec.platform or platform_for(spec.isa)
    return values


@given(first=st.fixed_dictionaries(FIELD_VALUES),
       changes=st.dictionaries(st.sampled_from(sorted(FIELD_VALUES)),
                               st.none(), max_size=3),
       data=st.data())
@settings(max_examples=300)
def test_digest_tracks_canonical_identity(first, changes, data):
    second = dict(first)
    for name in changes:
        second[name] = data.draw(FIELD_VALUES[name], label=name)
    one, two = build(first), build(second)
    if one == two:
        assert hash(one) == hash(two)
        assert one.digest() == two.digest()
    same = canonical(one) == canonical(two)
    assert (one.digest() == two.digest()) == same


# -- pickling: the process pool ships specs to its workers ----------------

PICKLED = [
    MeasurementSpec(function="aes-go", isa="x86", scale=SMALL, seed=2,
                    requests=3, db="redis",
                    platform=platform_for_memory("x86", 256),
                    scaling=ScalingConfig(panic_threshold=3),
                    sampling=SamplingConfig.parse("fast"),
                    cluster=ClusterConfig(nodes=3, node_fail_rate=0),
                    vector=VectorConfig.parse("rvv256"), trace=True,
                    faults=FaultPlan.chaos(seed=4)),
    ScalingConfig(panic_threshold=3, queue_capacity=16),
    ClusterConfig(nodes=3, placement="spread", node_capacity=4),
    SamplingConfig.parse("balanced"),
    VectorConfig.parse("rvv512"),
    FaultPlan(seed=3, specs=[FaultSpec("rpc.drop", 0.5, max_fires=2)],
              retry_deadline=40),
    FaultSpec("faas.cold_start", 1, ticks=16),
]


@pytest.mark.parametrize("value", PICKLED,
                         ids=[type(value).__name__ for value in PICKLED])
def test_pickle_round_trip(value):
    clone = pickle.loads(pickle.dumps(value))
    assert type(clone) is type(value)
    assert clone == value and hash(clone) == hash(value)
    assert dataclasses.astuple(clone) == dataclasses.astuple(value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(clone, dataclasses.fields(clone)[0].name, None)
