"""FaultPlan / FaultInjector: determinism, immutability, metering."""

import pickle

import pytest

from repro.faults import FAULT_SITES, FaultPlan, FaultSpec, InjectedFault


class TestFaultSpec:
    def test_rejects_unknown_site(self):
        with pytest.raises(ValueError):
            FaultSpec("nope.site", 0.5)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            FaultSpec("faas.handler", 1.5)
        with pytest.raises(ValueError):
            FaultSpec("faas.handler", -0.1)

    def test_immutable(self):
        spec = FaultSpec("faas.handler", 0.5)
        with pytest.raises(AttributeError):
            spec.rate = 1.0

    def test_equality_and_hash(self):
        assert FaultSpec("rpc.drop", 0.2) == FaultSpec("rpc.drop", 0.2)
        assert FaultSpec("rpc.drop", 0.2) != FaultSpec("rpc.drop", 0.3)
        assert hash(FaultSpec("rpc.drop", 0.2)) == hash(FaultSpec("rpc.drop", 0.2))


class TestFaultPlan:
    def test_rejects_duplicate_sites(self):
        with pytest.raises(ValueError):
            FaultPlan(specs=[FaultSpec("rpc.drop", 0.1),
                             FaultSpec("rpc.drop", 0.2)])

    def test_immutable_hashable_picklable(self):
        plan = FaultPlan.chaos(seed=7)
        with pytest.raises(AttributeError):
            plan.seed = 9
        assert plan == FaultPlan.chaos(seed=7)
        assert plan != FaultPlan.chaos(seed=8)
        assert hash(plan) == hash(FaultPlan.chaos(seed=7))
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert clone.specs == plan.specs

    def test_chaos_arms_every_failure_mode(self):
        plan = FaultPlan.chaos(seed=0, rate=0.25, stall_ticks=16)
        sites = {spec.site for spec in plan.specs}
        assert sites <= set(FAULT_SITES)
        assert {"engine.create", "faas.handler", "rpc.drop",
                "db.timeout", "emu.disk"} <= sites
        assert plan.spec_for("faas.cold_start").ticks == 16
        assert plan.spec_for("engine.stop") is None


class TestFaultInjector:
    def test_same_plan_same_decisions(self):
        plan = FaultPlan(seed=3, specs=[FaultSpec("faas.handler", 0.3)])
        first = [plan.arm().should_fire("faas.handler") for _ in range(1)]
        sequence_a = [fire for injector in [plan.arm()]
                      for fire in [injector.should_fire("faas.handler")
                                   for _ in range(50)]]
        sequence_b = [fire for injector in [plan.arm()]
                      for fire in [injector.should_fire("faas.handler")
                                   for _ in range(50)]]
        assert sequence_a == sequence_b
        assert any(sequence_a) and not all(sequence_a)
        assert first[0] == sequence_a[0]

    def test_sites_draw_independently(self):
        """Interleaving draws across sites cannot perturb any site's
        sequence — the core of the determinism contract."""
        plan = FaultPlan(seed=5, specs=[FaultSpec("rpc.drop", 0.4),
                                        FaultSpec("db.timeout", 0.4)])
        solo = plan.arm()
        solo_drops = [solo.should_fire("rpc.drop") for _ in range(30)]
        mixed = plan.arm()
        mixed_drops = []
        for index in range(30):
            mixed.should_fire("db.timeout")  # interleaved foreign draws
            mixed_drops.append(mixed.should_fire("rpc.drop"))
        assert mixed_drops == solo_drops

    def test_unarmed_site_never_fires_or_draws(self):
        plan = FaultPlan(seed=1, specs=[FaultSpec("rpc.drop", 1.0)])
        injector = plan.arm()
        assert not injector.should_fire("engine.create")
        assert injector.snapshot() == {}

    def test_max_fires_caps_the_budget(self):
        plan = FaultPlan(seed=0, specs=[
            FaultSpec("faas.handler", 1.0, max_fires=2)])
        injector = plan.arm()
        fires = [injector.should_fire("faas.handler") for _ in range(5)]
        assert fires == [True, True, False, False, False]
        assert injector.fired["faas.handler"] == 2

    def test_maybe_raise_carries_the_site(self):
        plan = FaultPlan(seed=0, specs=[FaultSpec("emu.disk", 1.0)])
        injector = plan.arm()
        with pytest.raises(InjectedFault) as caught:
            injector.maybe_raise("emu.disk")
        assert caught.value.site == "emu.disk"

    def test_maybe_raise_with_domain_exception(self):
        plan = FaultPlan(seed=0, specs=[FaultSpec("engine.stop", 1.0)])
        with pytest.raises(KeyError):
            plan.arm().maybe_raise("engine.stop", exception=KeyError)

    def test_snapshot_is_a_copy(self):
        plan = FaultPlan(seed=0, specs=[FaultSpec("rpc.drop", 1.0)])
        injector = plan.arm()
        before = injector.snapshot()
        injector.should_fire("rpc.drop")
        assert before == {}
        assert injector.snapshot() == {"rpc.drop": 1}
        assert injector.total_fired() == 1
