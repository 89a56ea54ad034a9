"""The pinned CLI, run_chain and oracle outputs stay byte-identical.

``tools/golden_outputs.md5`` is the listing that ``tools/golden_outputs.py``
prints. A change that moves a random draw or a printed digit re-records it
and says so in CHANGES.md.
"""

import pathlib
import subprocess
import sys

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


def test_pinned_outputs_match_the_recorded_md5s(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(TOOLS / "golden_outputs.py"), str(tmp_path)],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout == (TOOLS / "golden_outputs.md5").read_text(encoding="utf-8")
