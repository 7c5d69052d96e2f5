"""Every call of ``scripts/cli_payloads.py`` and the ``accept`` payload
against their recorded output.

``cli_payloads.jsonl`` is the script's output and ``accept_payload.json``
the ``weylbox accept`` output, both with timings removed. A change that
alters a payload updates the file in the same diff.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

from weylbox.cli import run

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("cli_payloads.jsonl")
ACCEPT = Path(__file__).with_name("accept_payload.json")


def load_script():
    spec = importlib.util.spec_from_file_location(
        "cli_payloads", ROOT / "scripts" / "cli_payloads.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_payloads_match_the_recorded_file():
    script = load_script()
    expected = GOLDEN.read_text().splitlines()
    got = list(script.payload_lines())
    assert len(got) == len(expected) == len(script.calls())
    for argv, line, want in zip(script.calls(), got, expected):
        assert line == want, argv


def test_accept_payload_matches_the_recorded_file():
    # the mask of CI's "Acceptance repeatability" step: no wall_time_s and
    # no per-criterion seconds
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run(["accept"])
    data = json.loads(out.getvalue())
    del data["wall_time_s"]
    for result in data["payload"]["results"]:
        del result["seconds"]
    assert code == 0
    assert json.dumps(data, sort_keys=True) + "\n" == ACCEPT.read_text()
