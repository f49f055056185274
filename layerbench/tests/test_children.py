"""The run waits for every process below it, orphans included.

    python3 -m pytest layerbench/tests
"""

import os
import subprocess
import sys
import time

from children import adopt_orphans, reap
from measure import descendants

# A child that starts a grandchild and exits at once: the grandchild is
# orphaned while it still runs.
ORPHAN = (
    "import subprocess, sys;"
    "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep({})'])"
)


def test_reap_waits_for_an_orphaned_grandchild():
    assert adopt_orphans()
    subprocess.run([sys.executable, "-c", ORPHAN.format(0.5)], check=True)
    started = time.monotonic()
    assert reap(grace_s=10.0) == []
    assert time.monotonic() - started >= 0.3
    assert descendants(os.getpid()) == []


def test_reap_kills_what_outlives_the_grace():
    assert adopt_orphans()
    subprocess.run([sys.executable, "-c", ORPHAN.format(60)], check=True)
    started = time.monotonic()
    assert len(reap(grace_s=0.5)) == 1
    assert time.monotonic() - started < 5
