"""Outputs must not depend on Python's per-process string-hash salt.

``hash()`` of a ``str`` (or of a tuple holding one) changes with
``PYTHONHASHSEED``, so any output derived from it differs between two
runs of the same spec.  The lint bans the builtin outside ``__hash__``
methods (where it only keys in-process dicts and sets); the subprocess
test runs one Cassandra Hotel point, one Online Shop point, one
paymentservice reply and one served hotel-geo-go trace on a Cassandra
Hotel suite under two salts and requires byte-identical output.

A second AST lint keeps the simulator's modules free of unused imports.
"""

import ast
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC_ROOT = os.path.join(REPO_ROOT, "src", "repro")
SIM_ROOT = os.path.join(SRC_ROOT, "sim")


def builtin_hash_calls(tree):
    """``(line, enclosing function)`` of every ``hash(...)`` call outside
    a ``__hash__`` method."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "hash" and function != "__hash__"):
            found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


class TestNoSaltedHash:
    def test_src_calls_hash_only_inside_dunder_hash(self):
        offenders = []
        for directory, _dirs, files in os.walk(SRC_ROOT):
            for filename in sorted(files):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(directory, filename)
                with open(path, encoding="utf-8") as handle:
                    tree = ast.parse(handle.read(), filename=path)
                offenders.extend(
                    "%s:%d in %s()" % (os.path.relpath(path, REPO_ROOT),
                                       line, function)
                    for line, function in builtin_hash_calls(tree))
        assert not offenders, (
            "builtin hash() is salted per process; use zlib.crc32: %s"
            % offenders)

    def test_lint_sees_calls_and_spares_dunder_hash(self):
        tree = ast.parse(
            "class Key:\n"
            "    def __hash__(self):\n"
            "        return hash(self.name)\n"
            "    def bucket(self):\n"
            "        return hash(self.name) % 8\n"
            "ids = [hash(word) for word in 'ab']\n")
        assert builtin_hash_calls(tree) == [(5, "bucket"), (6, None)]


def unused_imports(tree):
    """``(line, name)`` of every name a module imports and never uses.

    A name counts as used when it is read anywhere in the module, listed
    in ``__all__``, or named inside a string annotation.
    """
    imported = {}
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(element.value for element in ast.walk(node.value)
                        if isinstance(element, ast.Constant))
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    for annotation in filter(None, annotations):
        for part in ast.walk(annotation):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                used.update(name.id for name in ast.walk(
                    ast.parse(part.value, mode="eval"))
                    if isinstance(name, ast.Name))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


class TestNoUnusedImports:
    def test_sim_modules_use_every_import(self):
        offenders = []
        for directory, _dirs, files in os.walk(SIM_ROOT):
            for filename in sorted(files):
                if not filename.endswith(".py") or filename == "__init__.py":
                    continue
                path = os.path.join(directory, filename)
                with open(path, encoding="utf-8") as handle:
                    tree = ast.parse(handle.read(), filename=path)
                offenders.extend(
                    "%s:%d %s" % (os.path.relpath(path, REPO_ROOT), line, name)
                    for line, name in unused_imports(tree))
        assert not offenders, "unused imports: %s" % offenders

    def test_lint_sees_unused_and_spares_used(self):
        tree = ast.parse(
            "from __future__ import annotations\n"
            "import os.path\n"
            "import random as rnd\n"
            "from typing import Dict, List, Optional, Tuple\n"
            "from x import Exported, Quoted, Unused\n"
            "__all__ = ['Exported']\n"
            "def f(a: 'Optional[Quoted]') -> Dict:\n"
            "    values: List[int] = []\n"
            "    return os.path.join(values)\n")
        assert unused_imports(tree) == [(3, "rnd"), (4, "Tuple"),
                                        (5, "Unused")]


SALT_PROBE = """
import json

from repro.core.parallel import execute_task
from repro.core.scale import SimScale
from repro.core.spec import MeasurementSpec
from repro.db import make_datastore
from repro.serverless.engine import install_docker
from repro.serverless.faas import FaasPlatform
from repro.serverless.loadgen import arrival_ticks
from repro.serverless.platform import make_platform
from repro.workloads.catalog import get_function
from repro.workloads.hotel import HotelSuite

point = execute_task(MeasurementSpec(function="hotel-reservation-go",
                                     isa="riscv", scale=SimScale(2048, 32),
                                     db="cassandra"))
shop = execute_task(MeasurementSpec(function="productcatalogservice-go",
                                    isa="riscv", scale=SimScale(2048, 32)))
payment = get_function("paymentservice-nodejs")
engine = install_docker("riscv")
engine.registry.push(payment.image("riscv"))
platform = FaasPlatform(engine)
platform.deploy(payment.name, payment.name, payment.runtime_name,
                payment.handler)
reply = platform.invoke(payment.name, payment.default_payload()).result
suite = HotelSuite(make_datastore("cassandra"))
geo = next(fn for fn in suite.functions if fn.name == "hotel-geo-go")
serving = make_platform("riscv", seed=0)
serving.registry.push(geo.image("riscv"))
serving.deploy(geo.name, geo.name, geo.runtime_name, geo.handler,
               services=suite.services_for(geo))
served = serving.serve(geo.name, arrival_ticks("poisson", rps=300.0,
                                               requests=40, seed=0),
                       payload_factory=geo.default_payload)
print(json.dumps({"point": point.as_dict(full=True),
                  "shop": shop.as_dict(full=True), "reply": reply,
                  "served": served.as_dict()}, sort_keys=True))
"""


class TestSaltFreeOutputs:
    def run_probe(self, salt, cache_dir):
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env.update(PYTHONPATH=os.path.join(REPO_ROOT, "src"),
                   PYTHONHASHSEED=str(salt), REPRO_CACHE_DIR=str(cache_dir),
                   REPRO_RESULT_CACHE="0", REPRO_JOBS="1")
        result = subprocess.run([sys.executable, "-c", SALT_PROBE],
                                capture_output=True, text=True, env=env,
                                cwd=REPO_ROOT, timeout=300)
        assert result.returncode == 0, result.stderr
        return result.stdout

    def test_cassandra_point_and_payment_reply_ignore_the_salt(self,
                                                               tmp_path):
        one = self.run_probe(1, tmp_path / "salt-1")
        thirty = self.run_probe(30, tmp_path / "salt-30")
        assert '"transaction_id": "TXN-' in one
        assert '"function": "productcatalogservice-go"' in one
        assert '"hotel_ids": ["h' in one
        assert one == thirty
