"""Crash-safety: SIGKILL a serving process mid-write, restart warm.

The WAL journal is the whole point of the pragma discipline: a process
killed with no warning — no drain, no checkpoint, no connection close —
must leave a database that passes ``PRAGMA integrity_check`` and still
answers the killed process's cached requests after restart.
"""

import os
import signal
import sqlite3
import subprocess
import sys
import textwrap
import time

from repro.config import ServiceConfig
from repro.service import Service, TraversalRequest
from repro.service.store import store_verify
from repro.graph.generators import uniform_random_graph

#: One graph definition shared by the killed child and the restarted
#: service, so fingerprints match across processes.
GRAPH_ARGS = dict(num_vertices=300, num_edges=2400, seed=5)

CHILD_SCRIPT = textwrap.dedent(
    """
    import sys
    from repro.config import ServiceConfig
    from repro.service import Service, TraversalRequest
    from repro.graph.generators import uniform_random_graph

    store_path = sys.argv[1]
    graph = uniform_random_graph(300, 2400, seed=5, name="crash")
    service = Service(config=ServiceConfig(max_workers=2, store_path=store_path))
    service.registry.register("crash", lambda: graph)
    source = 0
    while True:  # run until SIGKILLed; results stream into the store
        job = service.submit(TraversalRequest("bfs", "crash", source=source))
        service.result(job, timeout=30)
        source = (source + 1) % 64
    """
)


def _poll_rows(path, minimum, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True, timeout=1.0)
            rows = conn.execute("SELECT COUNT(*) FROM result_cache").fetchone()[0]
            conn.close()
            if rows >= minimum:
                return rows
        except sqlite3.Error:
            pass
        time.sleep(0.05)
    return 0


def test_sigkill_mid_write_recovers_warm(tmp_path):
    db = tmp_path / "crash.db"
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD_SCRIPT, str(db)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        rows = _poll_rows(db, minimum=3)
        assert rows >= 3, "child never wrote results through to the store"
        # No drain, no checkpoint, no goodbye.
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=30)

    # The WAL database survives the kill intact...
    ok, detail = store_verify(db)
    assert ok, f"store corrupt after SIGKILL: {detail}"

    # ...and a restarted service answers the dead process's requests warm.
    graph = uniform_random_graph(300, 2400, seed=5, name="crash")
    config = ServiceConfig(max_workers=2, store_path=str(db))
    with Service(config=config) as service:
        service.registry.register("crash", lambda: graph)
        assert service.cost_model.rate("bfs") is not None, (
            "the learned rate must survive the crash and seed the model"
        )
        job = service.submit(TraversalRequest("bfs", "crash", source=0))
        result = service.result(job, timeout=30)
        assert result is not None
        stats = service.stats()
        assert stats.store_state in ("ok", "quarantined")
        assert stats.executions == 0, "request must be served from the store"
        assert stats.store_hits >= 1
