"""Functional tests for every vSwarm handler and the work models."""

import pytest

from repro.core.scale import SimScale
from repro.db import CassandraStore
from repro.serverless.engine import install_docker
from repro.serverless.faas import FaasPlatform
from repro.sim.isa.predecode import instructions, program_length
from repro.workloads.catalog import (
    HOTEL_FUNCTIONS,
    ONLINESHOP_FUNCTIONS,
    STANDALONE_FUNCTIONS,
    all_functions,
    get_function,
)
from repro.workloads.hotel import HotelSuite

SCALE = SimScale(time=2048, space=32)


def invoke_once(function, services=None, payload=None, sequence=0):
    engine = install_docker("riscv")
    engine.registry.push(function.image("riscv"))
    platform = FaasPlatform(engine)
    platform.deploy(function.name, function.name, function.runtime_name,
                    function.handler, services=services or {})
    return platform.invoke(
        function.name,
        payload if payload is not None else function.default_payload(sequence),
    )


class TestCatalog:
    def test_counts(self):
        assert len(STANDALONE_FUNCTIONS) == 9
        assert len(ONLINESHOP_FUNCTIONS) == 6
        assert len(HOTEL_FUNCTIONS) == 6
        assert len(all_functions()) == 21

    def test_names_unique(self):
        names = [fn.name for fn in all_functions()]
        assert len(names) == len(set(names))

    def test_get_function(self):
        assert get_function("aes-go").runtime_name == "go"
        with pytest.raises(KeyError):
            get_function("nope")

    def test_every_function_has_images_for_both_arches(self):
        for function in all_functions():
            assert function.image("x86").compressed_size_mb > 0
            assert function.image("riscv").compressed_size_mb > 0


class TestStandaloneHandlers:
    def test_fibonacci_computes(self):
        record = invoke_once(get_function("fibonacci-go"), payload={"n": 10})
        # fib(10) = 55 (modular arithmetic does not bite at this size)
        assert record.result["fib_mod"] == 55

    def test_fibonacci_rejects_negative(self):
        function = get_function("fibonacci-go")
        engine = install_docker("riscv")
        engine.registry.push(function.image("riscv"))
        platform = FaasPlatform(engine)
        platform.deploy(function.name, function.name, "go", function.handler)
        with pytest.raises(ValueError):
            platform.invoke(function.name, {"n": -1})

    def test_aes_ciphertext_is_real(self):
        from repro.workloads.crypto import aes128_encrypt

        record = invoke_once(get_function("aes-python"),
                             payload={"plaintext": "attack at dawn",
                                      "key": "0123456789abcdef"})
        expected = aes128_encrypt(b"attack at dawn", b"0123456789abcdef")
        assert record.result["ciphertext_prefix"] == expected[:32].hex()

    def test_auth_digest_is_real_hmac(self):
        from repro.workloads.crypto import hmac_sha256

        record = invoke_once(get_function("auth-nodejs"),
                             payload={"token": "tok-123", "user": "bob"})
        digest = hmac_sha256(b"vswarm-auth-service-secret-key", b"bob:tok-123")
        assert record.result["digest_prefix"] == digest[:16].hex()


class TestOnlineShopHandlers:
    def test_product_catalog_search(self):
        record = invoke_once(get_function("productcatalogservice-go"),
                             payload={"query": "clothing"})
        assert record.result["products"]
        assert record.metrics["scanned"] == 120

    def test_shipping_quote(self):
        record = invoke_once(get_function("shippingservice-go"))
        assert record.result["cost_usd"] > 8.99

    def test_recommendations_exclude_cart(self):
        record = invoke_once(get_function("recommendationservice-python"),
                             payload={"product_ids": ["OLJ00001"]})
        assert "OLJ00001" not in record.result["recommendations"]
        assert len(record.result["recommendations"]) == 5

    def test_email_renders(self):
        record = invoke_once(get_function("emailservice-python"))
        assert record.result["sent"]
        assert record.result["bytes"] > 100

    def test_currency_conversion(self):
        record = invoke_once(get_function("currencyservice-nodejs"),
                             payload={"from": "USD", "to": "EUR",
                                      "units": 100, "nanos": 0})
        # 100 USD -> EUR at the boutique's fixed rates.
        assert 80 <= record.result["units"] <= 95

    def test_currency_rejects_unknown(self):
        function = get_function("currencyservice-nodejs")
        engine = install_docker("riscv")
        engine.registry.push(function.image("riscv"))
        platform = FaasPlatform(engine)
        platform.deploy(function.name, function.name, "nodejs", function.handler)
        with pytest.raises(ValueError):
            platform.invoke(function.name, {"from": "XXX", "to": "EUR"})

    def test_payment_luhn_validation(self):
        record = invoke_once(get_function("paymentservice-nodejs"),
                             payload={"card_number": "4539578763621486",
                                      "amount_usd": 10})
        assert record.result["charged"]
        bad = invoke_once(get_function("paymentservice-nodejs"),
                          payload={"card_number": "4539578763621487",
                                   "amount_usd": 10})
        assert not bad.result["charged"]


class TestHotelHandlers:
    @pytest.fixture()
    def suite(self):
        return HotelSuite(CassandraStore())

    def _platform(self, suite):
        engine = install_docker("riscv")
        platform = FaasPlatform(engine)
        for function in suite.functions:
            engine.registry.push(function.image("riscv"))
            platform.deploy(function.name, function.name, function.runtime_name,
                            function.handler, services=suite.services_for(function))
        return platform

    def test_geo_returns_nearby_hotels(self, suite):
        platform = self._platform(suite)
        record = platform.invoke("hotel-geo-go",
                                 {"lat": 37.9, "lon": 23.7, "radius_km": 100})
        assert record.result["hotel_ids"]

    def test_user_login_correct_and_wrong_password(self, suite):
        platform = self._platform(suite)
        ok = platform.invoke("hotel-user-go",
                             {"username": "user0003", "password": "pass0003"})
        assert ok.result["authorized"]
        bad = platform.invoke("hotel-user-go",
                              {"username": "user0003", "password": "wrong"})
        assert not bad.result["authorized"]

    def test_rate_returns_sorted_plans(self, suite):
        platform = self._platform(suite)
        record = platform.invoke("hotel-rate-go",
                                 {"hotel_ids": ["h0001", "h0002"],
                                  "in_date": "2015-04-01"})
        rates = [plan["room_type"]["bookable_rate"]
                 for plan in record.result["plans"]]
        assert rates == sorted(rates)
        assert len(rates) == 6

    def test_reservation_books_and_persists(self, suite):
        platform = self._platform(suite)
        record = platform.invoke("hotel-reservation-go", {
            "hotel_id": "h0005", "customer": "user0001",
            "in_date": "2015-04-02", "out_date": "2015-04-04",
        })
        assert record.result["booked"]
        stored = suite.db.query("reservations", hotel_id="h0005")
        assert len(stored) == 1

    def test_profile_cache_miss_then_hit(self, suite):
        platform = self._platform(suite)
        first = platform.invoke("hotel-profile-go", {"hotel_ids": ["h0000"]})
        assert first.metrics.get("cache_misses") == 1
        second = platform.invoke("hotel-profile-go", {"hotel_ids": ["h0000"]})
        assert second.metrics.get("cache_hits") == 1
        assert second.receipts["db"].ops == 0  # served entirely from cache

    def test_profile_payloads_are_large(self, suite):
        platform = self._platform(suite)
        record = platform.invoke("hotel-profile-go",
                                 {"hotel_ids": ["h0001", "h0002"]})
        assert record.response_bytes > 20_000

    def test_recommendation_ranking(self, suite):
        platform = self._platform(suite)
        record = platform.invoke("hotel-recommendation-go", {"require": "rate"})
        assert len(record.result["hotel_ids"]) == 5
        with pytest.raises(ValueError):
            platform.invoke("hotel-recommendation-go", {"require": "stars"})


class TestWorkModels:
    def test_cold_program_contains_init_warm_does_not(self):
        function = get_function("fibonacci-python")
        cold_record = invoke_once(function)
        assert cold_record.cold
        program_cold = function.invocation_program(cold_record, {}, SCALE)
        assert "init" in program_cold.routines

        engine = install_docker("riscv")
        engine.registry.push(function.image("riscv"))
        platform = FaasPlatform(engine)
        platform.deploy(function.name, function.name, "python", function.handler)
        platform.invoke(function.name, function.default_payload())
        warm_record = platform.invoke(function.name, function.default_payload(1))
        program_warm = function.invocation_program(warm_record, {}, SCALE)
        assert "init" not in program_warm.routines

    def test_warm_programs_share_request_addresses(self):
        # The PC/address stability property warm locality relies on.
        function = get_function("aes-go")
        engine = install_docker("riscv")
        engine.registry.push(function.image("riscv"))
        platform = FaasPlatform(engine)
        platform.deploy(function.name, function.name, "go", function.handler)
        platform.invoke(function.name, function.default_payload())
        warm_a = platform.invoke(function.name, function.default_payload(1))
        warm_b = platform.invoke(function.name, function.default_payload(2))
        from repro.sim.isa import get_isa

        isa = get_isa("riscv")
        asm_a = isa.assemble(function.invocation_program(warm_a, {}, SCALE))
        asm_b = isa.assemble(function.invocation_program(warm_b, {}, SCALE))
        pcs_a = [pc for pc, _icls, _addr, _t in instructions(asm_a)]
        pcs_b = [pc for pc, _icls, _addr, _t in instructions(asm_b)]
        assert pcs_a == pcs_b

    def test_different_functions_different_addresses(self):
        # ASLR-style placement: distinct functions must not share lines.
        fn_a = get_function("aes-go")
        fn_b = get_function("auth-go")
        record_a = invoke_once(fn_a)
        record_b = invoke_once(fn_b)
        prog_a = fn_a.invocation_program(record_a, {}, SCALE)
        prog_b = fn_b.invocation_program(record_b, {}, SCALE)
        assert prog_a.space.aslr_offset != prog_b.space.aslr_offset

    def test_dynamic_length_scales_down_with_time(self):
        function = get_function("fibonacci-go")
        record = invoke_once(function)
        from repro.sim.isa import get_isa

        isa = get_isa("riscv")
        small = program_length(isa.assemble(function.invocation_program(
            record, {}, SimScale(time=4096, space=32))))
        large = program_length(isa.assemble(function.invocation_program(
            record, {}, SimScale(time=1024, space=32))))
        assert 2.0 < large / small < 8.0  # roughly 4x
