"""The names the benchmark under perfbench/ resolves through pcaot.campaign, the
import direction of the modules around it (config <- report <- campaign), and
the one module that starts child processes (runner)."""

import ast
import subprocess
import sys

from pcaot import campaign, report
from pcaot.sections import StateManifest, VariableSpec

from conftest import REPO_ROOT

# What perfbench/worker.py and perfbench/run.py call as pcaot.campaign's.
BENCHMARK_NAMES = (
    "load_campaign_config", "plan", "execute", "aggregate", "emit_reports", "capture_section",
)


def test_the_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    from tracing import CAMPAIGN_TARGETS, Tracer

    for name in BENCHMARK_NAMES:
        assert callable(getattr(campaign, name)), name
    originals = {name: getattr(campaign, name) for name in BENCHMARK_NAMES}
    tracer = Tracer(CAMPAIGN_TARGETS)
    tracer.install()
    try:
        assert campaign.aggregate is not originals["aggregate"]
    finally:
        tracer.uninstall()
    assert {name: getattr(campaign, name) for name in BENCHMARK_NAMES} == originals
    assert campaign.aggregate is report.aggregate


def test_the_tracer_books_a_driver_of_two_sections_to_the_first(monkeypatch):
    # The tracer binds generate_replay_driver's manifest argument and reads its section_id.
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    from tracing import CAMPAIGN_TARGETS, Tracer

    def manifest(section_id):
        variables = (VariableSpec("k", "i32", (), "out"),)
        return StateManifest(section_id, variables, parallelizable=True, expected_pattern="PO")

    tracer = Tracer(CAMPAIGN_TARGETS)
    tracer.install()
    try:
        driver = campaign.generate_replay_driver(
            ["k = 1;"], manifest("first"), 1, "", [(["k = 2;"], manifest("second"))]
        )
    finally:
        tracer.uninstall()
    assert "pcaot_section_1" in driver.text
    (span,) = (s for s in tracer.spans if s.name == "generate_replay_driver")
    assert span.version == "first"
    assert not span.failed


def test_config_and_report_do_not_import_the_pipeline():
    # The package's __init__ imports pcaot.campaign for its public names, so the
    # package is set up bare: only the two modules and what they import load.
    code = (
        "import sys, types\n"
        "package = types.ModuleType('pcaot')\n"
        f"package.__path__ = [{str(REPO_ROOT / 'src' / 'pcaot')!r}]\n"
        "sys.modules['pcaot'] = package\n"
        "import pcaot.config, pcaot.report\n"
        "assert 'pcaot.campaign' not in sys.modules, sorted(sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_only_the_runner_imports_subprocess():
    importers = set()
    for path in (REPO_ROOT / "src" / "pcaot").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "subprocess" for module in modules):
                importers.add(path.stem)
    assert importers == {"runner"}
