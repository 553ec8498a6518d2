"""Cold start: what a fresh interpreter loads, and a runtime without networkx.

Each check runs in a fresh interpreter, because this test process has
long since imported every layer.  The gates compare module sets, not
timings, so they do not depend on the host's speed.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.guard.faultinject import describe_sites

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

#: Modules that ``import repro`` must leave unloaded.
DENY = ("networkx", "repro.runner", "repro.service", "repro.resilience",
        "repro.sim", "repro.codegen", "repro.profiling",
        "repro.tool")

#: Modules that ``import repro.tool.cli`` and the service client's
#: commands must leave unloaded: the simulators, the in-order model's
#: group compiler, codegen, the tool, the profiler, the proof and the
#: execution layer.
CLIENT_DENY = ("networkx", "repro.sim.inorder", "repro.sim.ooo",
               "repro.sim.smt", "repro.sim.groups", "repro.codegen",
               "repro.tool.postpass", "repro.profiling", "repro.check",
               "repro.runner.worker")

#: Prepended to every script: makes ``import networkx`` fail the way it
#: does where the package is not installed.
BLOCK_NETWORKX = "import sys\nsys.modules['networkx'] = None\n"


def _python(code: str, *args: str, cwd: Path, timeout: float = 120.0
            ) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR),
               REPRO_CACHE_DIR=str(cwd / "cache"),
               REPRO_CHECKPOINT_DIR=str(cwd / "checkpoints"),
               REPRO_SERVICE_ROOT=str(cwd / "service"))
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=timeout)


def _loaded_after(statement: str, cwd: Path) -> list:
    code = (f"import json, sys\n{statement}\n"
            f"print(json.dumps(sorted(sys.modules)))\n")
    proc = _python(code, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _denied(modules: list, deny=DENY) -> list:
    return sorted(name for name in modules
                  if any(name == d or name.startswith(d + ".")
                         for d in deny))


class TestImportGate:
    def test_import_repro_loads_no_layer(self, tmp_path):
        assert _denied(_loaded_after("import repro", tmp_path)) == []

    def test_short_run_loads_no_group_compiler(self, tmp_path):
        """Only a run long enough to compile its stretch imports the group
        compiler: a tiny simulation and a tiny profile leave it out."""
        loaded = _loaded_after(
            "from repro.workloads import make_workload\n"
            "from repro.profiling import collect_profile\n"
            "from repro.sim.machine import simulate\n"
            "w = make_workload('vpr', 'tiny')\n"
            "collect_profile(w.build_program(), w.build_heap)\n"
            "simulate(w.build_program(), w.build_heap(), 'inorder')",
            tmp_path)
        assert "repro.sim.inorder" in loaded
        assert "repro.sim.groups" not in loaded

    def test_cli_import_loads_no_networkx(self, tmp_path):
        """Each CLI handler imports its own layers, so importing the CLI
        loads neither networkx nor any layer a command may not reach."""
        loaded = _loaded_after("import repro.tool.cli", tmp_path)
        assert _denied(loaded, CLIENT_DENY) == []

    @pytest.mark.parametrize("action", ("submit", "status", "fetch", "top"))
    def test_service_client_loads_no_simulator(self, tmp_path, action):
        """``service submit|status|fetch|top`` on a root: the handler
        runs, and the module set stays inside the client's layers."""
        root = tmp_path / "root"
        script = (
            "import contextlib, io, json, sys\n"
            "from repro.tool.cli import main\n"
            "root = sys.argv[1]\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    code = main(['service', 'submit', 'mcf', '--scale', "
            "'tiny', '--root', root])\n"
            "assert code == 0, code\n"
            "batch = out.getvalue().split()[1].rstrip(':')\n"
            "argv = {'submit': ['submit', 'em3d', '--scale', 'tiny'],\n"
            "        'status': ['status', batch],\n"
            "        'fetch': ['fetch', batch],\n"
            "        'top': ['top', '--json']}[sys.argv[2]]\n"
            "with contextlib.redirect_stdout(io.StringIO()), \\\n"
            "        contextlib.redirect_stderr(io.StringIO()):\n"
            "    code = main(['service', *argv, '--root', root])\n"
            "print(json.dumps([code, sorted(sys.modules)]))\n")
        proc = _python(script, str(root), action, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        code, loaded = json.loads(proc.stdout)
        # The batch is queued, not run: status and fetch report it
        # unfinished (exit 1); submit and top succeed.
        assert code == (1 if action in ("status", "fetch") else 0)
        assert "repro.service.client" in loaded
        assert _denied(loaded, CLIENT_DENY) == []

    def test_service_status_on_a_missing_root_loads_no_socket(self, tmp_path):
        """The queue and heartbeat modules take the host name from
        ``os.uname``, so the light client never loads ``socket``."""
        script = (
            "import contextlib, io, json, sys\n"
            "from repro.tool.cli import main\n"
            "with contextlib.redirect_stderr(io.StringIO()):\n"
            "    code = main(['service', 'status', 'none', '--root', "
            "sys.argv[1]])\n"
            "print(json.dumps([code, sorted(sys.modules)]))\n")
        proc = _python(script, str(tmp_path / "missing"), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        code, loaded = json.loads(proc.stdout)
        assert code == 1
        assert "repro.service.queue" in loaded
        assert _denied(loaded, CLIENT_DENY + ("socket",)) == []

    def test_local_workers_import_the_execution_layer_before_forking(
            self, tmp_path):
        """Forked workers inherit the execution layer from the parent,
        which imports it before its first fork."""
        script = (
            "import json, sys\n"
            "from pathlib import Path\n"
            "from repro.service import ServiceConfig\n"
            "from repro.service.local import LocalWorkers\n"
            "seen = []\n"
            "def fork(self, live):\n"
            "    seen.append('repro.runner.worker' in sys.modules)\n"
            "    return False\n"
            "LocalWorkers._fork = fork\n"
            "config = ServiceConfig(root=Path(sys.argv[1]))\n"
            "queue = config.make_queue().ensure()\n"
            "workers = LocalWorkers(queue, config.make_backend(), None, "
            "jobs=2)\n"
            "seen.append('repro.runner.worker' in sys.modules)\n"
            "workers.work([], None)\n"
            "print(json.dumps(seen))\n")
        proc = _python(script, str(tmp_path / "root"), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [False, True]

    def test_first_use_loads_the_layer(self, tmp_path):
        loaded = _loaded_after("import repro\nrepro.simulate", tmp_path)
        assert "repro.sim" in loaded
        assert "repro.runner" not in loaded

    def test_every_export_is_the_defining_object(self):
        defining = {"collect_profile": "repro.profiling",
                    "ResultCache": "repro.runner", "Runner": "repro.runner",
                    "RunSpec": "repro.runner",
                    "inorder_config": "repro.sim", "ooo_config": "repro.sim",
                    "simulate": "repro.sim",
                    "SSPPostPassTool": "repro.tool.postpass",
                    "ToolOptions": "repro.tool.postpass",
                    "PAPER_ORDER": "repro.workloads",
                    "make_workload": "repro.workloads",
                    "workload_names": "repro.workloads"}
        lazy = [name for name in repro.__all__
                if name not in ("PAPER", "__version__")]
        assert sorted(lazy) == sorted(defining)
        for name, module in defining.items():
            assert getattr(repro, name) is getattr(
                importlib.import_module(module), name), name

    def test_star_import(self):
        namespace: dict = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)
        assert namespace["Runner"] is repro.Runner

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name
        assert not hasattr(repro, "no_such_name")


class TestWithoutNetworkx:
    """The runtime is standard-library only; networkx serves one
    optional function (the Section 3.3 min-cut mode)."""

    RUN_MODULE = BLOCK_NETWORKX + (
        "import runpy\n"
        "runpy.run_module('repro', run_name='__main__', alter_sys=True)\n")

    def test_list(self, tmp_path):
        proc = _python(self.RUN_MODULE, "--list", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "mcf" in proc.stdout.split()

    def test_profile_adapt_simulate(self, tmp_path):
        proc = _python(self.RUN_MODULE, "mcf", "--scale", "tiny",
                       "--no-cache", cwd=tmp_path, timeout=300.0)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "[3/4] simulating" in proc.stdout
        assert "[4/4] done." in proc.stdout

    def test_optimal_trigger_cut_names_networkx(self, tmp_path):
        proc = _python(BLOCK_NETWORKX + (
            "from repro.analysis.cfg import CFG\n"
            "from repro.triggers import optimal_trigger_cut\n"
            "from repro.workloads import make_workload\n"
            "program = make_workload('mcf', 'tiny').build_program()\n"
            "cfg = CFG(program.function('main'))\n"
            "try:\n"
            "    optimal_trigger_cut(cfg, {}, cfg.entry)\n"
            "except ImportError as exc:\n"
            "    print(exc.name, exc)\n"
            "    sys.exit(0)\n"
            "sys.exit(1)\n"), cwd=tmp_path)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.startswith("networkx ")
        assert "networkx" in proc.stdout.split(" ", 1)[1]


#: Command lines whose parser (and, for the cheap ones, handler) must
#: run with networkx blocked: catches a subcommand whose path reaches
#: networkx again.
SMOKE_ARGVS = [
    ["--help"],
    ["cache", "--help"], ["cache", "stats"],
    ["report", "--help"],
    ["check", "--help"],
    ["runs", "--help"], ["runs"],
    ["service", "--help"],
    *(["service", action, "--help"]
      for action in ("submit", "wait", "status", "fetch", "worker", "top",
                     "gc")),
]


def test_cli_parser_smoke_without_networkx(tmp_path):
    script = BLOCK_NETWORKX + (
        "import contextlib, io, json\n"
        "from repro.tool.cli import main\n"
        "codes = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            codes.append(main(argv))\n"
        "        except SystemExit as exc:\n"
        "            codes.append(exc.code)\n"
        "print(json.dumps(codes))\n"
        "main(['--inject', 'list'])\n")
    proc = _python(script, json.dumps(SMOKE_ARGVS), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    codes_line, *sites = proc.stdout.splitlines()
    assert dict(zip(map(" ".join, SMOKE_ARGVS), json.loads(codes_line))) \
        == {" ".join(argv): 0 for argv in SMOKE_ARGVS}
    assert sites == list(describe_sites())
