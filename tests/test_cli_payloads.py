"""Every call of ``scripts/cli_payloads.py`` against its recorded output.

``cli_payloads.jsonl`` is the script's output, timings removed. A change
that alters a payload updates that file in the same diff.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("cli_payloads.jsonl")


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
