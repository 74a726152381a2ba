"""The Online Shop suite — six functions from Google's Online Boutique
(Table 3.3): product catalog and shipping in Go, recommendation and email
in Python, currency and payment in NodeJS.

The catalog is real in-memory data shared (as in the original, where the
recommendation service is used with the product catalog) between the Go
catalog service and the Python recommender.
"""

from __future__ import annotations

import random
import zlib
from typing import Any, Dict, List

from repro.db.engine import encoded_size
from repro.sim.isa import ir
from repro.workloads.function import VSwarmFunction

_CATEGORIES = ("accessories", "clothing", "footwear", "home", "beauty", "kitchen")


def build_catalog(products: int = 120, seed: int = 7) -> List[Dict[str, Any]]:
    """A deterministic product catalog with realistic field shapes."""
    rng = random.Random(seed)
    catalog = []
    for index in range(products):
        catalog.append({
            "id": "OLJ%05d" % index,
            "name": "product-%d" % index,
            "description": "A fine %s item. " % rng.choice(_CATEGORIES) * 6,
            "picture": "/static/img/products/%d.jpg" % index,
            "price_usd": {"units": rng.randrange(5, 200), "nanos": rng.randrange(10**9)},
            "categories": rng.sample(_CATEGORIES, k=rng.randrange(1, 3)),
        })
    return catalog


#: Shared catalog instance (module-level, like the services' loaded JSON).
CATALOG = build_catalog()
CATALOG_BYTES = encoded_size(CATALOG)
#: In-memory representation is fatter than the JSON wire form.
CATALOG_MEMORY_BYTES = CATALOG_BYTES * 4

#: Conversion rates the currency service ships with.
CURRENCY_RATES = {
    "EUR": 1.0, "USD": 1.1305, "JPY": 126.40, "GBP": 0.85970,
    "CAD": 1.5231, "CHF": 1.1327, "AUD": 1.61, "SEK": 10.46,
}


class OnlineShopFunction(VSwarmFunction):
    """Base for the six Online Boutique functions."""

    suite = "onlineshop"


class ProductCatalogService(OnlineShopFunction):
    """Go: list products or search by category / id."""

    app_layer_mb = {"x86": 3.51, "riscv": 3.43}

    def __init__(self):
        super().__init__("productcatalogservice-go", "go")

    def default_payload(self, sequence: int = 0) -> Dict[str, Any]:
        return {"query": _CATEGORIES[sequence % len(_CATEGORIES)]}

    def handler(self, payload: Dict[str, Any], ctx) -> Any:
        query = payload.get("query", "")
        matches = [
            product for product in CATALOG
            if query in product["categories"] or query == product["id"]
        ]
        ctx.meter("scanned", len(CATALOG))
        ctx.meter("matched", len(matches))
        return {"products": [product["id"] for product in matches]}

    def build_work(self, builder, record, services) -> None:
        scanned = int(record.metrics.get("scanned", len(CATALOG)))
        catalog_region = builder.region("shop.catalog", CATALOG_MEMORY_BYTES)
        builder.touch(catalog_region, load_bytes=CATALOG_MEMORY_BYTES,
                      pattern=ir.StridePattern(stride=64), native=True)
        builder.compute(ialu=scanned * 40, native=True)  # string compares
        builder.branches(scanned * 3, predictability=0.85)


class ShippingService(OnlineShopFunction):
    """Go: quote shipping cost from an address and a cart."""

    app_layer_mb = {"x86": 3.50, "riscv": 3.40}

    def __init__(self):
        super().__init__("shippingservice-go", "go")

    def default_payload(self, sequence: int = 0) -> Dict[str, Any]:
        return {
            "address": {"zip": "10679", "country": "GR"},
            "items": [{"id": "OLJ%05d" % i, "quantity": i + 1} for i in range(4)],
        }

    def handler(self, payload: Dict[str, Any], ctx) -> Any:
        items = payload.get("items", [])
        quantity = sum(int(item.get("quantity", 1)) for item in items)
        # The boutique's quote formula: flat fee + per-item cost.
        cost_usd = 8.99 + 0.50 * quantity
        ctx.meter("items", len(items))
        return {"cost_usd": round(cost_usd, 2), "tracking_id": "TRK%08d" % (quantity * 37)}

    def build_work(self, builder, record, services) -> None:
        items = int(record.metrics.get("items", 4))
        builder.compute(ialu=items * 120 + 400, falu=items * 20 + 40, native=True)


class RecommendationService(OnlineShopFunction):
    """Python: recommend products related to the cart (uses the catalog)."""

    app_layer_mb = {"x86": 3.59, "riscv": 3.48}
    image_variant = "grpc-prebuilt"
    #: Drags in the product-catalog client on top of the gRPC stack.
    init_factor = 1.15

    def __init__(self):
        super().__init__("recommendationservice-python", "python")

    def default_payload(self, sequence: int = 0) -> Dict[str, Any]:
        return {"product_ids": ["OLJ%05d" % (sequence + offset) for offset in range(3)]}

    def handler(self, payload: Dict[str, Any], ctx) -> Any:
        wanted = set(payload.get("product_ids", []))
        rng = random.Random(len(wanted))
        candidates = [product["id"] for product in CATALOG if product["id"] not in wanted]
        picks = rng.sample(candidates, k=min(5, len(candidates)))
        ctx.meter("scanned", len(CATALOG))
        return {"recommendations": picks}

    def build_work(self, builder, record, services) -> None:
        scanned = int(record.metrics.get("scanned", len(CATALOG)))
        catalog_region = builder.region("shop.catalog", CATALOG_MEMORY_BYTES)
        builder.touch(catalog_region, load_bytes=CATALOG_MEMORY_BYTES // 2,
                      pattern=ir.StridePattern(stride=96), native=False)
        builder.compute(ialu=scanned * 15, native=False)


class EmailService(OnlineShopFunction):
    """Python: render an order-confirmation email from a template.

    Deliberately small data footprint — the thesis singles emailservice
    out for its low L2 miss count and correspondingly mild cold start
    (Fig 4.12/4.13).
    """

    app_layer_mb = {"x86": 3.20, "riscv": 3.26}
    image_variant = "grpc-prebuilt"
    #: Lean import set (templates only): the mild cold start and low L2
    #: miss count the thesis singles out (Fig 4.12/4.13).
    init_factor = 0.55

    TEMPLATE = (
        "Dear {name},\n\nYour order {order} has shipped and will arrive at "
        "{address}.\n\nItems:\n{items}\n\nThank you for shopping with us!\n"
    )

    def __init__(self):
        super().__init__("emailservice-python", "python")

    def default_payload(self, sequence: int = 0) -> Dict[str, Any]:
        return {
            "name": "Georgia", "order": "ORD-%06d" % sequence,
            "address": "Panepistimiou 30, Athens",
            "items": ["OLJ%05d x1" % index for index in range(3)],
        }

    def handler(self, payload: Dict[str, Any], ctx) -> Any:
        body = self.TEMPLATE.format(
            name=payload.get("name", "customer"),
            order=payload.get("order", "ORD-0"),
            address=payload.get("address", ""),
            items="\n".join(payload.get("items", [])),
        )
        ctx.meter("body_bytes", len(body))
        return {"sent": True, "bytes": len(body)}

    def build_work(self, builder, record, services) -> None:
        body_bytes = int(record.metrics.get("body_bytes", 256))
        template_region = builder.region("shop.email_template", 4 * 1024)
        builder.touch(template_region, load_bytes=2048, store_bytes=body_bytes,
                      stride=32, native=False)
        builder.compute(ialu=body_bytes * 6, native=False)


class CurrencyService(OnlineShopFunction):
    """NodeJS: convert prices between currencies."""

    app_layer_mb = {"x86": 4.52, "riscv": 4.74}

    def __init__(self):
        super().__init__("currencyservice-nodejs", "nodejs")

    def default_payload(self, sequence: int = 0) -> Dict[str, Any]:
        return {"from": "USD", "to": "EUR", "units": 19, "nanos": 990000000}

    def handler(self, payload: Dict[str, Any], ctx) -> Any:
        source = payload.get("from", "USD")
        target = payload.get("to", "EUR")
        if source not in CURRENCY_RATES or target not in CURRENCY_RATES:
            raise ValueError("unsupported currency pair %s->%s" % (source, target))
        amount = payload.get("units", 0) + payload.get("nanos", 0) / 1e9
        converted = amount / CURRENCY_RATES[source] * CURRENCY_RATES[target]
        ctx.meter("conversions", 1)
        return {"units": int(converted), "nanos": int((converted % 1) * 1e9),
                "currency": target}

    def build_work(self, builder, record, services) -> None:
        conversions = int(record.metrics.get("conversions", 1))
        rates_region = builder.region("shop.rates", 2 * 1024)
        builder.touch(rates_region, loads=conversions * 12, stride=16, native=False)
        builder.compute(falu=conversions * 60, ialu=conversions * 200, native=False)


class PaymentService(OnlineShopFunction):
    """NodeJS: validate a card (real Luhn checksum) and charge it."""

    app_layer_mb = {"x86": 3.44, "riscv": 46.94}  # riscv build vendored deps

    def __init__(self):
        super().__init__("paymentservice-nodejs", "nodejs")

    def default_payload(self, sequence: int = 0) -> Dict[str, Any]:
        return {"card_number": "4539578763621486", "amount_usd": 42.5}

    @staticmethod
    def luhn_valid(number: str) -> bool:
        digits = [int(ch) for ch in number if ch.isdigit()]
        if len(digits) < 12:
            return False
        checksum = 0
        for index, digit in enumerate(reversed(digits)):
            if index % 2 == 1:
                digit *= 2
                if digit > 9:
                    digit -= 9
            checksum += digit
        return checksum % 10 == 0

    def handler(self, payload: Dict[str, Any], ctx) -> Any:
        number = str(payload.get("card_number", ""))
        valid = self.luhn_valid(number)
        ctx.meter("digits", len(number))
        if not valid:
            return {"charged": False, "reason": "invalid card"}
        # zlib.crc32, not hash(): str hashing is salted per process.
        # crc32 is below 10**10, so the id stays fixed-width.
        key = "%s|%r" % (number, payload.get("amount_usd"))
        transaction = "TXN-%010d" % zlib.crc32(key.encode("utf-8"))
        return {"charged": True, "transaction_id": transaction}

    def build_work(self, builder, record, services) -> None:
        digits = int(record.metrics.get("digits", 16))
        builder.compute(ialu=digits * 30 + 500, native=False)
        builder.branches(digits * 2, predictability=0.7)


def make_onlineshop() -> List[OnlineShopFunction]:
    """All six Online Shop functions, Table 3.3 order."""
    return [
        ProductCatalogService(),
        ShippingService(),
        RecommendationService(),
        EmailService(),
        CurrencyService(),
        PaymentService(),
    ]
