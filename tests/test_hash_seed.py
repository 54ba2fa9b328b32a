"""Records do not depend on the string hash seed: a defect's rows follow its
frozenset's iteration order, which does, so every command is run in child
processes under two seeds and their output files are compared byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

COMMANDS = """
import sys
from defectcost.cli import main

out = sys.argv[1]
assert main(["synth", "--seed", "11", "--projects", "3", "--releases", "3", "--artifacts", "60,80",
             "--features", "4", "-o", out + "/corpus"]) == 0
common = ["--data", out + "/corpus", "--min-instances", "20", "--min-defects", "2"]
assert main(["bootstrap", *common, "--samples", "2", "--trees", "10", "-o", out + "/bootstrap"]) == 0
assert main(["cross-version", *common, "--model", "gnb", "--count-mode", "defects", "-o", out + "/cv"]) == 0
assert main(["cross-project", *common, "--model", "gnb", "--transfer", "camargo_cruz", "-o", out + "/cp"]) == 0
"""


def outputs(out: Path, hash_seed: str) -> dict[str, bytes]:
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": hash_seed}
    run = subprocess.run([sys.executable, "-c", COMMANDS, str(out)], env=env, capture_output=True,
                         encoding="utf-8", errors="replace")
    assert run.returncode == 0, run.stderr
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    first, second = outputs(tmp_path / "1", "1"), outputs(tmp_path / "2", "2")
    for command in ("bootstrap", "cv", "cp"):
        assert first[f"{command}/records.csv"].count(b"\n") > 1, command  # a header and at least one record
    assert first.keys() == second.keys()
    assert [name for name in first if first[name] != second[name]] == []
