"""The Hotel reservation suite (Table 3.4), after DeathStarBench.

Six Go microfunctions over a primary database — MongoDB upstream,
Cassandra in the RISC-V port (§3.3.3) — three of which (Reservation,
Rate, Profile) consult Memcached first and populate it after a miss.
That back-and-forth is the mechanism behind the thesis's hotel results:
ten-fold cold slowdowns from cache-population traffic (Fig 4.10/4.11) and
excellent warm behaviour once Memcached absorbs the reads, with Profile —
the largest payload — worst cold and best warm (Fig 4.5, 4.19).

Handlers run real queries against the metered datastores; the work models
charge exactly the work the receipts describe.
"""

from __future__ import annotations

import pickle
import random
import struct
from typing import Any, Dict, List, Optional

from repro.db.engine import Datastore
from repro.db.memcached import MemcachedCache
from repro.sim.isa import ir
from repro.workloads import crypto
from repro.workloads.function import VSwarmFunction

#: Dataset shape (native magnitudes).
NUM_HOTELS = 80
NUM_USERS = 400
PROFILE_DESCRIPTION_WORDS = 700  # ~4 KB of text per hotel profile
PROFILE_IMAGE_BYTES = 12_000     # inline thumbnail payload per profile
RATE_PLANS_PER_HOTEL = 3

#: In-memory bloat of the store's payload bytes (JVM/C++ object overhead).
DB_MEMORY_FACTOR = {"cassandra": 6, "mongodb": 3, "mariadb": 3, "redis": 2}
CACHE_MEMORY_FACTOR = 2

_GO_APP_LAYERS = {
    "geo": {"x86": 0.87, "riscv": 0.86},
    "recommendation": {"x86": 0.84, "riscv": 0.84},
    "user": {"x86": 0.82, "riscv": 0.83},
    "reservation": {"x86": 0.88, "riscv": 0.89},
    "rate": {"x86": 0.88, "riscv": 0.89},
    "profile": {"x86": 0.89, "riscv": 0.89},
}


#: Generated dataset documents per seed, stored as a pickle blob.
#: Document generation (rng text, hex thumbnails, password hashes) costs
#: far more than storing them, and every measurement task seeds a fresh
#: datastore — so generate once and replay into each store.  A single
#: ``pickle.loads`` per replay both deserialises the rows and gives each
#: store its own copies: a store keeps a shallow copy of each record, so
#: two stores seeded from one set of documents would share their nested
#: lists and dicts.  No handler updates a row in place (see the storage
#: contract on :class:`~repro.db.engine.Datastore`); one ``pickle.loads``
#: is an order of magnitude cheaper than per-row ``copy.deepcopy``.
_DATASET_CACHE: Dict[int, bytes] = {}


def _dataset_blob(seed: int) -> bytes:
    """The hotel dataset as a pickled list of ``(table, key, doc)`` rows."""
    blob = _DATASET_CACHE.get(seed)
    if blob is None:
        blob = pickle.dumps(list(_generate_documents(seed)),
                            pickle.HIGHEST_PROTOCOL)
        _DATASET_CACHE[seed] = blob
    return blob


def seed_dataset(db: Datastore, seed: int = 11) -> Dict[str, int]:
    """Populate a datastore with the hotel dataset; returns row counts."""
    for table, key, doc in pickle.loads(_dataset_blob(seed)):
        db.put(table, key, doc)
    if hasattr(db, "flush_all"):
        db.flush_all()  # Cassandra: persist the seed batch to SSTables
    return {"hotels": NUM_HOTELS, "users": NUM_USERS}


def _draw_bytes(rng: random.Random, count: int) -> bytes:
    """``count`` draws of ``rng.randrange(256)``, as ``bytes``.

    ``randrange(256)`` takes the top 9 bits of one 32-bit Mersenne output
    and draws again when its top bit is set, so an output ``word`` below
    ``1 << 31`` gives the byte ``word >> 23``.  One ``getrandbits`` call
    per round yields the round's outputs in draw order, and a round draws
    exactly the bytes still missing, so the rng ends where ``count``
    ``randrange(256)`` calls leave it.
    """
    getrandbits = rng.getrandbits
    drawn = bytearray()
    missing = count
    while missing:
        words = struct.unpack("<%dI" % missing,
                              getrandbits(32 * missing).to_bytes(
                                  4 * missing, "little"))
        drawn.extend(word >> 23 for word in words if word < 1 << 31)
        missing = count - len(drawn)
    return bytes(drawn)


def _generate_documents(seed: int):
    """Yield the dataset rows in insertion order (one rng stream)."""
    rng = random.Random(seed)
    words = ("lake", "view", "suite", "historic", "breakfast", "rooftop",
             "quiet", "marble", "garden", "harbour", "boutique", "spa")
    for index in range(NUM_HOTELS):
        hotel_id = "h%04d" % index
        description = " ".join(rng.choice(words) for _ in range(PROFILE_DESCRIPTION_WORDS))
        yield ("profiles", hotel_id, {
            "hotel_id": hotel_id,
            "name": "Hotel %d" % index,
            "phone": "+30-21%07d" % index,
            "description": description,
            "images": ["/img/%s/%d.jpg" % (hotel_id, i) for i in range(5)],
            # Inline thumbnail payload: profiles are by far the suite's
            # largest rows, which is what makes the Profile function's
            # cold execution the outlier of Fig 4.5.
            "thumbnail_data": _draw_bytes(rng, PROFILE_IMAGE_BYTES // 2).hex(),
        })
        yield ("geo", hotel_id, {
            "hotel_id": hotel_id,
            "lat": 37.9 + rng.uniform(-0.5, 0.5),
            "lon": 23.7 + rng.uniform(-0.5, 0.5),
        })
        for plan in range(RATE_PLANS_PER_HOTEL):
            yield ("rates", "%s-p%d" % (hotel_id, plan), {
                "hotel_id": hotel_id,
                "code": "RACK%d" % plan,
                "in_date": "2015-04-%02d" % (plan + 1),
                "room_type": {"bookable_rate": 100 + 10 * plan,
                              "total_rate": 120 + 10 * plan,
                              "code": "KNG"},
            })
        yield ("numbers", hotel_id, {"hotel_id": hotel_id, "rooms": 200})
        yield ("recommendations", hotel_id, {
            "hotel_id": hotel_id,
            "rate": rng.uniform(80.0, 400.0),
            "price": rng.uniform(60.0, 350.0),
        })
    yield ("meta", "rates_version", {"version": 1, "updated": "2015-04-01"})
    for index in range(NUM_USERS):
        username = "user%04d" % index
        password_hash = crypto.sha256(("pass%04d" % index).encode()).hex()
        yield ("users", username, {"username": username, "password": password_hash})


class HotelFunction(VSwarmFunction):
    """Base: Go runtime, bound to the db (and maybe memcached)."""

    suite = "hotel"
    required_services = ("db",)
    uses_memcached = False

    def __init__(self, short_name: str):
        super().__init__("hotel-%s-go" % short_name, "go")
        self.short_name = short_name
        self.app_layer_mb = _GO_APP_LAYERS[short_name]

    # -- shared work-model helpers -----------------------------------------------

    def _db_factor(self, services: Dict[str, Any]) -> int:
        return DB_MEMORY_FACTOR.get(getattr(services.get("db"), "name", ""), 4)

    def build_work(self, builder, record, services) -> None:
        if record.cold:
            builder.cold_connect("database")
            if self.uses_memcached:
                builder.cold_connect("cache")
        db = services.get("db")
        db_receipt = record.receipts.get("db")
        if db is not None and db_receipt is not None:
            builder.service_work(
                "db", db_receipt, db.data_bytes() * self._db_factor(services)
            )
        cache = services.get("memcached")
        cache_receipt = record.receipts.get("memcached")
        if cache is not None and cache_receipt is not None:
            builder.service_work(
                "memcached", cache_receipt,
                max(4096, cache.used_bytes * CACHE_MEMORY_FACTOR),
            )
        if record.metrics.get("passthrough"):
            # Cached responses are stored marshalled: reply is a copy, not
            # a re-serialization.
            builder.response_passthrough = True
        self.build_handler_work(builder, record, services)

    def build_handler_work(self, builder, record, services) -> None:
        """Function-specific compute beyond the datastore receipts."""
        builder.compute(ialu=2_000, native=True)


class GeoFunction(HotelFunction):
    """Find hotels within a radius (real haversine over the geo table)."""

    def __init__(self):
        super().__init__("geo")

    def default_payload(self, sequence: int = 0) -> Dict[str, Any]:
        return {"lat": 37.97, "lon": 23.72, "radius_km": 25.0}

    def handler(self, payload: Dict[str, Any], ctx) -> Any:
        import math

        lat = float(payload.get("lat", 37.97))
        lon = float(payload.get("lon", 23.72))
        radius = float(payload.get("radius_km", 25.0))
        db = ctx.service("db")
        nearby = []
        scanned = 0
        for point in db.scan("geo"):
            scanned += 1
            d_lat = math.radians(point["lat"] - lat)
            d_lon = math.radians(point["lon"] - lon)
            a = (math.sin(d_lat / 2) ** 2
                 + math.cos(math.radians(lat)) * math.cos(math.radians(point["lat"]))
                 * math.sin(d_lon / 2) ** 2)
            distance = 2 * 6371 * math.asin(math.sqrt(a))
            if distance <= radius:
                nearby.append(point["hotel_id"])
        ctx.meter("scanned", scanned)
        return {"hotel_ids": sorted(nearby)[:10]}

    def build_handler_work(self, builder, record, services) -> None:
        scanned = int(record.metrics.get("scanned", NUM_HOTELS))
        builder.compute(falu=scanned * 35, fmul=scanned * 10, native=True)
        builder.branches(scanned, predictability=0.8)


class RecommendationFunction(HotelFunction):
    """Rank hotels by rate or price."""

    def __init__(self):
        super().__init__("recommendation")

    def default_payload(self, sequence: int = 0) -> Dict[str, Any]:
        return {"require": "rate" if sequence % 2 == 0 else "price"}

    def handler(self, payload: Dict[str, Any], ctx) -> Any:
        metric = payload.get("require", "rate")
        if metric not in ("rate", "price"):
            raise ValueError("require must be 'rate' or 'price'")
        db = ctx.service("db")
        rows = list(db.scan("recommendations"))
        rows.sort(key=lambda row: row[metric], reverse=True)
        ctx.meter("scanned", len(rows))
        return {"hotel_ids": [row["hotel_id"] for row in rows[:5]], "by": metric}

    def build_handler_work(self, builder, record, services) -> None:
        scanned = int(record.metrics.get("scanned", NUM_HOTELS))
        # sort: n log n comparisons
        builder.compute(ialu=scanned * 24, falu=scanned * 8, native=True)
        builder.branches(scanned * 4, predictability=0.7)


class UserFunction(HotelFunction):
    """Credential check against the users table (real SHA-256 compare)."""

    def __init__(self):
        super().__init__("user")

    def default_payload(self, sequence: int = 0) -> Dict[str, Any]:
        index = sequence % NUM_USERS
        return {"username": "user%04d" % index, "password": "pass%04d" % index}

    def handler(self, payload: Dict[str, Any], ctx) -> Any:
        username = payload.get("username", "")
        password = payload.get("password", "")
        db = ctx.service("db")
        row = db.get("users", username)
        if row is None:
            return {"authorized": False, "reason": "no such user"}
        digest = crypto.sha256(password.encode()).hex()
        ctx.meter("hash_chunks", crypto.sha256_chunk_count(len(password)))
        return {"authorized": digest == row["password"]}

    def build_handler_work(self, builder, record, services) -> None:
        chunks = int(record.metrics.get("hash_chunks", 1))
        builder.compute(ialu=chunks * 64 * 14 + 500, native=True, ilp=2)


class CachedHotelFunction(HotelFunction):
    """Base for the Memcached-backed trio (Table 3.4's Yes/Yes rows)."""

    required_services = ("db", "memcached")
    uses_memcached = True

    def cache_key(self, payload: Dict[str, Any]) -> str:
        raise NotImplementedError

    def fetch(self, payload: Dict[str, Any], ctx) -> Any:
        """Compute the response from the database (cache-miss path)."""
        raise NotImplementedError

    def handler(self, payload: Dict[str, Any], ctx) -> Any:
        cache = ctx.service("memcached")
        key = self.cache_key(payload)
        cached = cache.get(key)
        if cached is not None:
            ctx.meter("cache_hits")
            return cached
        ctx.meter("cache_misses")
        result = self.fetch(payload, ctx)
        cache.set(key, result)
        return result


class RateFunction(CachedHotelFunction):
    """Room rates for a set of hotels."""

    def __init__(self):
        super().__init__("rate")

    def default_payload(self, sequence: int = 0) -> Dict[str, Any]:
        return {"hotel_ids": ["h%04d" % index for index in range(6)],
                "in_date": "2015-04-01"}

    def cache_key(self, payload: Dict[str, Any]) -> str:
        return "rates|%s|%s" % (",".join(payload.get("hotel_ids", [])),
                                payload.get("in_date", ""))

    def handler(self, payload: Dict[str, Any], ctx) -> Any:
        # Rates change, so even a cache hit validates freshness against
        # the version row; profiles are static and skip this.
        db = ctx.service("db")
        db.get("meta", "rates_version")
        return super().handler(payload, ctx)

    def fetch(self, payload: Dict[str, Any], ctx) -> Any:
        db = ctx.service("db")
        plans = []
        for hotel_id in payload.get("hotel_ids", []):
            for plan in range(RATE_PLANS_PER_HOTEL):
                row = db.get("rates", "%s-p%d" % (hotel_id, plan))
                if row is not None:
                    plans.append(row)
        plans.sort(key=lambda row: row["room_type"]["bookable_rate"])
        return {"plans": plans}


class ReservationFunction(CachedHotelFunction):
    """Check availability and book a room (writes every request)."""

    def __init__(self):
        super().__init__("reservation")

    def default_payload(self, sequence: int = 0) -> Dict[str, Any]:
        # Same hotel and stay every request (the thesis's protocol repeats
        # one request ten times); the customer varies per booking.
        return {"hotel_id": "h0007",
                "customer": "user%04d" % (sequence % NUM_USERS),
                "in_date": "2015-04-02", "out_date": "2015-04-05"}

    def cache_key(self, payload: Dict[str, Any]) -> str:
        return "avail|%s|%s" % (payload.get("hotel_id", ""), payload.get("in_date", ""))

    @staticmethod
    def _stay_days(in_date: str, out_date: str) -> int:
        from datetime import date

        def parse(text: str) -> date:
            year, month, day = (int(part) for part in text.split("-"))
            return date(year, month, day)

        try:
            nights = (parse(out_date) - parse(in_date)).days
        except (ValueError, AttributeError):
            return 1
        return max(1, nights)

    def fetch(self, payload: Dict[str, Any], ctx) -> Any:
        db = ctx.service("db")
        hotel_id = payload.get("hotel_id", "")
        numbers = db.get("numbers", hotel_id)
        capacity = numbers["rooms"] if numbers else 0
        # Availability is checked per night of the stay, as in the
        # DeathStarBench reservation service.
        nights = self._stay_days(payload.get("in_date", ""), payload.get("out_date", ""))
        available = capacity
        for _night in range(nights):
            booked = len(db.query("reservations", hotel_id=hotel_id))
            available = min(available, capacity - booked)
        ctx.meter("nights", nights)
        return {"hotel_id": hotel_id, "available": available}

    def handler(self, payload: Dict[str, Any], ctx) -> Any:
        availability = super().handler(payload, ctx)
        db = ctx.service("db")
        if availability.get("available", 0) > 0:
            booking_id = "r-%s-%s-%d" % (
                payload.get("hotel_id", ""), payload.get("customer", ""),
                ctx.record.sequence,
            )
            db.put("reservations", booking_id, {
                "hotel_id": payload.get("hotel_id", ""),
                "customer": payload.get("customer", ""),
                "in_date": payload.get("in_date", ""),
                "out_date": payload.get("out_date", ""),
            })
            # Write-through: keep the cached availability consistent.
            ctx.service("memcached").set(
                self.cache_key(payload),
                {"hotel_id": availability["hotel_id"],
                 "available": availability["available"] - 1},
            )
            ctx.meter("booked")
            return {"booked": True, "booking_id": booking_id}
        return {"booked": False}


class ProfileFunction(CachedHotelFunction):
    """Hotel profiles — the suite's largest payloads.

    On a cold instance the function also fills its in-process LRU from the
    database (the DeathStarBench profile service batch-reads), which is
    why its cold execution dwarfs everything else (351M cycles in the
    thesis's Fig 4.5) while its warm requests — served entirely from
    Memcached — are the fastest in the suite.
    """

    def __init__(self):
        super().__init__("profile")

    def default_payload(self, sequence: int = 0) -> Dict[str, Any]:
        return {"hotel_ids": ["h%04d" % offset for offset in range(5)]}

    def cache_key(self, payload: Dict[str, Any]) -> str:
        return "profiles|%s" % ",".join(payload.get("hotel_ids", []))

    def handler(self, payload: Dict[str, Any], ctx) -> Any:
        # Profiles cache per hotel (the marshalled rows fit Memcached's
        # slab classes individually; the combined response would not).
        cache = ctx.service("memcached")
        hotel_ids = payload.get("hotel_ids", [])
        # One batched round trip (memcached get_multi), as DeathStarBench's
        # profile service does.
        cached = cache.get_multi(["profile|%s" % h for h in hotel_ids])
        profiles = []
        missing = []
        for hotel_id in hotel_ids:
            row = cached.get("profile|%s" % hotel_id)
            if row is not None:
                profiles.append(row)
            else:
                missing.append(hotel_id)
        if missing:
            ctx.meter("cache_misses", len(missing))
            fetched = self.fetch({"hotel_ids": missing}, ctx)["profiles"]
            for row in fetched:
                cache.set("profile|%s" % row["hotel_id"], row)
            profiles.extend(fetched)
        else:
            ctx.meter("cache_hits")
            ctx.meter("passthrough", 1)
        return {"profiles": profiles}

    def fetch(self, payload: Dict[str, Any], ctx) -> Any:
        db = ctx.service("db")
        if "profile_lru" not in ctx.local:
            # Cold in-process cache: batch-read every profile once.
            ctx.local["profile_lru"] = {
                row["hotel_id"]: row for row in db.scan("profiles")
            }
            ctx.meter("lru_fill", len(ctx.local["profile_lru"]))
        lru = ctx.local["profile_lru"]
        profiles = [lru[h] for h in payload.get("hotel_ids", []) if h in lru]
        return {"profiles": profiles}


def make_hotel_functions() -> List[HotelFunction]:
    """The six hotel functions, Table 3.4 order."""
    return [
        GeoFunction(),
        RecommendationFunction(),
        UserFunction(),
        ReservationFunction(),
        RateFunction(),
        ProfileFunction(),
    ]


class HotelSuite:
    """Wires the hotel functions to a database and a Memcached instance."""

    def __init__(self, db: Datastore, memcached: Optional[MemcachedCache] = None,
                 seed: int = 11):
        self.db = db
        self.memcached = memcached or MemcachedCache(capacity_bytes=8 << 20)
        self.functions = make_hotel_functions()
        self.row_counts = seed_dataset(db, seed=seed)

    def services_for(self, function: HotelFunction) -> Dict[str, Any]:
        services: Dict[str, Any] = {"db": self.db}
        if function.uses_memcached:
            services["memcached"] = self.memcached
        return services

    def __repr__(self) -> str:
        return "HotelSuite(db=%s, %d functions)" % (self.db.name, len(self.functions))
