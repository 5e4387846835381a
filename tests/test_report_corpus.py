"""Every CLI report of the generated corpus (tests/report_corpus.py), byte
for byte: each input's (argv, exit code, stdout, stderr) records keep their
pinned digest. A change that alters a report re-pins the corpus with
``PYTHONPATH=src python tests/report_corpus.py``.

The oldest Python that pyproject.toml admits (3.10.7) replays the corpus
too, in a subprocess, when a ``python3.10`` of that version or later runs
here: directly, or through pyenv's shim under an installed 3.10. The test
skips, with the reason, when none does."""

import json
import os
import re
import shutil
import subprocess
from pathlib import Path

import pytest

from report_corpus import PINS, files_digest, generate, report_digest

PINNED = json.loads(PINS.read_text())
OLDEST = (3, 10, 7)  # pyproject.toml's requires-python
TESTS = Path(__file__).resolve().parent
# Prints the digests of the corpus written into the directory argv[1];
# report_corpus.main(), which rewrites the pins, is never called.
REPLAY = ("import json, sys\n"
          "from report_corpus import pins\n"
          "print(json.dumps(pins(sys.argv[1])))\n")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    return directory, generate(directory)


def test_the_generated_files_keep_their_digest(corpus):
    directory, runs = corpus
    assert sorted(runs) == sorted(PINNED["reports"])
    assert files_digest(directory) == PINNED["files"]


@pytest.mark.parametrize("name", sorted(PINNED["reports"]))
def test_each_input_keeps_its_report_digest(corpus, monkeypatch, name):
    directory, runs = corpus
    monkeypatch.chdir(directory)  # the records quote file names as given
    assert report_digest(runs[name]) == PINNED["reports"][name]


def oldest_python():
    """The path and environment of a Python with 3.10.7 <= version < 3.11;
    the test skips with the reason when there is none. A pyenv shim runs
    under the latest installed 3.10 that ``pyenv versions`` lists."""
    binary = shutil.which("python3.10")
    if binary is None:
        pytest.skip("no python3.10 on PATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    if Path(binary).parent.name == "shims":
        pyenv = shutil.which("pyenv")
        listed = pyenv and subprocess.run([pyenv, "versions", "--bare"], capture_output=True,
                                          text=True, timeout=60).stdout
        patches = [int(v[5:]) for v in (listed or "").split() if re.fullmatch(r"3\.10\.\d+", v)]
        if not patches:
            pytest.skip("python3.10 is a pyenv shim, and pyenv lists no 3.10 installed")
        env["PYENV_VERSION"] = f"3.10.{max(patches)}"
    probe = subprocess.run([binary, "-c", "import sys; print(*sys.version_info[:3])"],
                           env=env, capture_output=True, text=True, timeout=60)
    version = tuple(map(int, probe.stdout.split())) if probe.returncode == 0 else ()
    if not OLDEST <= version < (3, 11):
        said = (probe.stdout or probe.stderr).strip()
        pytest.skip(f"python3.10 does not run a 3.10.7 or later: {said}")
    return binary, env


def test_the_oldest_supported_python_replays_the_pinned_corpus(tmp_path):
    binary, env = oldest_python()
    run = subprocess.run([binary, "-c", REPLAY, str(tmp_path)], env=env, cwd=tmp_path,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    replayed = json.loads(run.stdout)
    reports = PINNED["reports"].keys() | replayed["reports"].keys()
    changed = [name for name in sorted(reports)
               if replayed["reports"].get(name) != PINNED["reports"].get(name)]
    assert (replayed["files"], changed) == (PINNED["files"], [])
