"""Every text file the package reads or writes is UTF-8, whatever the locale:
each test runs the package in a child process, with a locale or interpreter
options under which a default encoding would show."""

import os
import subprocess
import sys
from pathlib import Path

import defectcost

SRC = str(Path(defectcost.__file__).parents[1])

EVERY_COMMAND = """
import sys
from dataclasses import replace

from defectcost.cli import main
from defectcost.dataset import Defect, load_corpus, load_release_dir, write_release
from defectcost.experiments import read_records_csv, read_records_jsonl

out = sys.argv[1]
assert main(["synth", "--seed", "7", "--projects", "2", "--releases", "2", "--artifacts", "100,120",
             "--features", "4", "--signal", "1.5", "-o", out + "/synth"]) == 0
# the names are non-ASCII, the directories ASCII: under the C locale a
# non-ASCII path cannot be made
for p, base in enumerate(load_corpus(out + "/synth")):
    renamed = {aid: "é…" + aid for aid in base.artifact_ids}
    release = replace(
        base, project="prøjekt-" + base.project, release_id="rélease-" + base.release_id,
        artifact_ids=tuple(renamed[aid] for aid in base.artifact_ids),
        defects=tuple(Defect(d.id, frozenset(renamed[a] for a in d.artifacts), d.fixed_at) for d in base.defects))
    directory = write_release(release, f"{out}/corpus/{p}")
    loaded = load_release_dir(directory)
    assert (loaded.project, loaded.release_id, loaded.artifact_ids) == (
        release.project, release.release_id, release.artifact_ids)
with open(out + "/pred.csv", "w", encoding="utf-8") as fh:
    fh.write("artifact_id,score\\n" + "".join(f"{aid},0.75\\n" for aid in loaded.artifact_ids))

corpus = ["--data", out + "/corpus", "--min-instances", "10", "--min-defects", "2"]
runs = [
    ["validate", *corpus],
    ["metrics", "--release", str(directory), "--pred", out + "/pred.csv", "-o", out + "/metrics"],
    ["bootstrap", *corpus, "--samples", "3", "--seed", "5", "--model", "gnb", "-o", out + "/bootstrap"],
    ["cross-version", *corpus, "--model", "gnb", "-o", out + "/version"],
    ["cross-project", *corpus, "--model", "gnb", "--transfer", "camargo_cruz", "-o", out + "/cross"],
    ["analyze", "--records", out + "/bootstrap/records.csv", "--trees", "10", "-o", out + "/report"],
    ["sensitivity", "--records", out + "/bootstrap/records.jsonl", "--eval-records", out + "/cross/records.csv",
     "--trees", "10", "-o", out + "/sensitivity"],
]
for argv in runs:
    assert main(argv) == 0, argv
for run in ("metrics", "bootstrap", "version", "cross"):
    for records in (read_records_csv(f"{out}/{run}/records.csv"), read_records_jsonl(f"{out}/{run}/records.jsonl")):
        assert records and all(r.project.startswith("prøjekt-") and r.release.startswith("rélease-")
                               for r in records), (run, records)
print("done")
"""


NON_ASCII_OUTPUT = """
import json
import sys
from dataclasses import replace

from defectcost.cli import main
from defectcost.dataset import write_release
from defectcost.synth import SynthSpec, generate_synthetic

out = sys.argv[1]
base = generate_synthetic(SynthSpec(n_projects=1, releases_per_project=1, artifacts_range=(60, 60)), 2)[0]
write_release(replace(base, project="prøjekt"), out + "/corpus/p/r1")
assert main(["validate", "--data", out + "/corpus", "--min-instances", "10", "--min-defects", "2"]) == 0
meta = out + "/corpus/p/r1/meta.json"
with open(meta, encoding="utf-8") as fh:
    values = json.load(fh)
with open(meta, "w", encoding="utf-8") as fh:
    json.dump({**values, "release": ["ø"]}, fh, ensure_ascii=False)
assert main(["validate", "--data", out + "/corpus"]) == 2
print("done")
"""

ERROR_PATHS = """
import json
import os
import sys
from pathlib import Path

from defectcost.cli import main

out = sys.argv[1]
corpus = ["--min-instances", "10", "--min-defects", "2"]
assert main(["synth", "--seed", "2", "--projects", "1", "--releases", "2", "--artifacts", "60,60",
             "-o", out + "/synth"]) == 0
releases = sorted(str(p.parent) for p in Path(out, "synth").rglob("meta.json"))
assert main(["bootstrap", "--data", out + "/synth", *corpus, "--samples", "1", "--model", "gnb",
             "-o", out + "/run"]) == 0
# a corpus that names its project with a list, a prediction that repeats an
# id and a record of an unknown potential level, each name non-ASCII
meta = json.loads(Path(releases[0], "meta.json").read_text(encoding="utf-8"))
Path(out, "bad").mkdir()
Path(out, "bad", "meta.json").write_text(json.dumps({**meta, "project": ["prøjekt"]}), encoding="utf-8")
for name in ("metrics.csv", "defects.json"):
    Path(out, "bad", name).write_bytes(Path(releases[0], name).read_bytes())
Path(out, "pred.csv").write_text("artifact_id,score\\né,0.5\\né,0.5\\n", encoding="utf-8")
lines = Path(out, "run", "records.csv").read_text(encoding="utf-8").splitlines()
lines[1] = lines[1].rsplit(",", 1)[0] + ",énorme"
Path(out, "records.csv").write_text("\\n".join(lines) + "\\n", encoding="utf-8")
# a non-ASCII name as this locale gives it in argv: its bytes as surrogate escapes
missing = os.fsdecode(os.fsencode(out) + b"/\\xc3\\xb8")

bad = ["--data", out + "/bad", *corpus, "--model", "gnb"]
runs = {
    "validate": (["validate", "--data", missing], 2),
    "metrics": (["metrics", "--release", releases[0], "--pred", out + "/pred.csv", "-o", out + "/m"], 2),
    "bootstrap": (["bootstrap", *bad, "-o", out + "/b"], 2),
    "cross-version": (["cross-version", *bad, "-o", out + "/v"], 2),
    "cross-project": (["cross-project", *bad, "-o", out + "/p"], 2),
    "analyze": (["analyze", "--records", out + "/records.csv", "-o", out + "/a"], 2),
    "sensitivity": (["sensitivity", "--records", out + "/run/records.csv", "--eval-records", missing,
                     "-o", out + "/s"], 2),
    "synth": (["synth", "--artifacts", "1,ø", "-o", out + "/t"], 1),
}
for command, (argv, code) in runs.items():
    print("@@", command, file=sys.stderr, flush=True)
    assert main(argv) == code, command
print("done")
"""

# what each command's error shows of its non-ASCII name or path on stderr
ESCAPED = {
    "validate": "/\\udcc3\\udcb8]",
    "metrics": "duplicate artifact id '\\xe9'",
    "bootstrap": "got ['pr\\xf8jekt']",
    "cross-version": "got ['pr\\xf8jekt']",
    "cross-project": "got ['pr\\xf8jekt']",
    "analyze": "malformed 'potential' value '\\xe9norme'",
    "sensitivity": "/\\udcc3\\udcb8]",
    "synth": "got '1,\\xf8'",
}


def run_child(script: Path, out: Path, *options: str, env=None) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": SRC, **(env or {})}
    return subprocess.run([sys.executable, *options, str(script), str(out)], env=env, capture_output=True,
                          encoding="utf-8", errors="replace")


def write_script(tmp_path, text: str) -> Path:
    script = tmp_path / "script.py"
    script.write_text(text, encoding="utf-8")  # a source file is UTF-8 whatever the locale
    return script


def test_non_ascii_release_runs_under_the_c_locale(tmp_path):
    run = run_child(write_script(tmp_path, EVERY_COMMAND), tmp_path,
                    env={"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"})
    assert (run.returncode, run.stdout.splitlines()[-1:]) == (0, ["done"]), run.stderr


def test_commands_open_no_file_with_the_default_encoding(tmp_path):
    run = run_child(write_script(tmp_path, EVERY_COMMAND), tmp_path,
                    "-X", "warn_default_encoding", "-W", "error::EncodingWarning")
    assert (run.returncode, run.stdout.splitlines()[-1:]) == (0, ["done"]), run.stderr


def test_command_output_survives_the_c_locale(tmp_path):
    """Text the locale's encoding cannot hold reaches stdout and stderr as
    backslash escapes instead of ending the command."""
    run = run_child(write_script(tmp_path, NON_ASCII_OUTPUT), tmp_path,
                    env={"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"})
    assert (run.returncode, run.stdout.splitlines()[-1:]) == (0, ["done"]), run.stderr
    assert "pr\\xf8jekt/r0: artifacts=60 " in run.stdout
    assert "meta field 'release' must be a string, got ['\\xf8']" in run.stderr


def test_every_command_error_escapes_non_ascii_under_the_c_locale(tmp_path):
    """Each command's error with a non-ASCII name or path in it ends with exit
    1 or 2 and reaches stderr as backslash escapes, not a traceback."""
    run = run_child(write_script(tmp_path, ERROR_PATHS), tmp_path,
                    env={"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"})
    assert (run.returncode, run.stdout.splitlines()[-1:]) == (0, ["done"]), run.stderr
    assert run.stderr.isascii() and "Traceback" not in run.stderr, run.stderr
    sections = dict(part.split("\n", 1) for part in run.stderr.split("@@ ")[1:])
    assert sections.keys() == ESCAPED.keys()
    for command, text in ESCAPED.items():
        assert text in sections[command], (command, sections[command])
