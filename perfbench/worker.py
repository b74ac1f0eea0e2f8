"""Run one benchmark trial in a fresh Python process.

    python3 perfbench/worker.py '<request JSON>'

The request names the campaign config and one directory:

    config        campaign config path
    setup_dir     time the capture stage alone there, then delete it; or
    campaign_dir  empty directory for a fresh campaign, as ``pcaot run`` does it
    trace         with campaign_dir: trace the campaign, write its spans to
                  this path, then re-run the finished campaign on its own
                  directory (every row reused) and time that too

The two stages run in separate processes, so the peak RSS a campaign
reports is its own.  The last stdout line is one JSON object with the
timings and, for a campaign, its CPU time (this process and its children),
this process's peak RSS and the outcome records.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from pcaot import campaign  # noqa: E402
from tracing import CAMPAIGN_TARGETS, Tracer  # noqa: E402


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _campaign(config_path: Path, outdir: Path) -> list:
    """What ``pcaot run`` does: load, plan, execute, aggregate, report."""
    config = campaign.load_campaign_config(config_path)
    experiment = campaign.plan(config)
    records = campaign.execute(experiment, config, outdir)
    campaign.emit_reports(campaign.aggregate(records, config), records, outdir)
    return [r.to_dict() for r in records]


def main(request: dict) -> dict:
    # A crashing candidate must not leave a core file or wait for a dump handler.
    resource.setrlimit(resource.RLIMIT_CORE, (0, resource.getrlimit(resource.RLIMIT_CORE)[1]))
    config_path = Path(request["config"])
    if request.get("setup_dir"):
        setup_dir = Path(request["setup_dir"])
        start = time.perf_counter()
        config = campaign.load_campaign_config(config_path)
        for job in config.sections:
            campaign.capture_section(job, config, setup_dir)
        setup_s = time.perf_counter() - start
        shutil.rmtree(setup_dir)
        return {"setup_s": setup_s}

    out: dict = {}
    outdir = Path(request["campaign_dir"])
    tracer = Tracer(CAMPAIGN_TARGETS) if request.get("trace") else None
    if tracer:
        tracer.install()
    try:
        cpu0, start = _cpu_s(), time.perf_counter()
        if tracer:
            with tracer.root():
                records = _campaign(config_path, outdir)
        else:
            records = _campaign(config_path, outdir)
        out["campaign_s"] = time.perf_counter() - start
        out["cpu_s"] = _cpu_s() - cpu0
    finally:
        if tracer:
            tracer.uninstall()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["records"] = records
    if tracer:
        tracer.dump(Path(request["trace"]))
        start = time.perf_counter()
        out["resume_records"] = _campaign(config_path, outdir)
        out["resume_s"] = time.perf_counter() - start
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
