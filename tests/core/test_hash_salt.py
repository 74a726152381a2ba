"""Outputs must not depend on Python's per-process string-hash salt.

``hash()`` of a ``str`` (or of a tuple holding one) changes with
``PYTHONHASHSEED``, so any output derived from it differs between two
runs of the same spec.  The lint bans the builtin outside ``__hash__``
methods (where it only keys in-process dicts and sets); the subprocess
test runs one Cassandra Hotel point and one paymentservice reply under
two salts and requires byte-identical output.
"""

import ast
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC_ROOT = os.path.join(REPO_ROOT, "src", "repro")


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


SALT_PROBE = """
import json

from repro.core.parallel import execute_task
from repro.core.spec import MeasurementSpec
from repro.serverless.engine import install_docker
from repro.serverless.faas import FaasPlatform
from repro.workloads.catalog import get_function

point = execute_task(MeasurementSpec(function="hotel-reservation-go",
                                     isa="riscv", time=2048, space=32,
                                     db="cassandra"))
payment = get_function("paymentservice-nodejs")
engine = install_docker("riscv")
engine.registry.push(payment.image("riscv"))
platform = FaasPlatform(engine)
platform.deploy(payment.name, payment.name, payment.runtime_name,
                payment.handler)
reply = platform.invoke(payment.name, payment.default_payload()).result
print(json.dumps({"point": point.as_dict(full=True), "reply": reply},
                 sort_keys=True))
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
        assert one == thirty
