"""Every CLI artifact, pinned by its SHA-256 digest across commits.

The test runs each command at ``test_07``'s small config into a temporary
directory: ``gen-data``, ``train``, a 2-seed ``ablate``, a 2-alpha
``alpha-sweep``, ``eval`` on two generated pose files, and ``curvo plot`` of
each plottable report. It compares each written file's digest with
``tests/artifacts.sha256``; a manifest is hashed without its ``out_dir`` line.
The digests hold for the numpy version the file records.

A change that states a change of numbers or of format rewrites the file with

    PYTHONPATH=src python tests/test_artifacts.py

and lists each changed digest, and why, in CHANGES.md.
"""

import hashlib
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from curvo import cli

DIGESTS = Path(__file__).resolve().with_name("artifacts.sha256")

CONFIG_TEXT = """\
[data]
preset = walker
sequences = 3
length = 60
feature_dim = 6
nuisance_dim = 0
noise_sigma = 0.01

[model]
lstm_sizes = 8

[training]
max_epochs_per_stage = 3
patience = 2
subseq_count = 3
subseq_min = 8
subseq_max = 12
val_split = 0.34
seed = 11
"""

COMMANDS = (
    ["gen-data", "--sequences", "2", "--length", "60", "--seed", "11", "--feature-dim", "6",
     "--nuisance-dim", "0", "--noise-sigma", "0.01", "--out", "data"],
    ["train", "--config", "run.ini", "--out", "train"],
    ["ablate", "--config", "run.ini", "--seeds", "0,1", "--out", "ablate"],
    ["alpha-sweep", "--config", "run.ini", "--alphas", "0.5,1", "--epochs", "2",
     "--out", "sweep"],
    ["eval", "--gt", "data/poses/00.txt", "--est", "data/poses/01.txt", "--out", "eval"],
    ["plot", "--report", "train/runlog.csv", "--out", "plots/runlog.svg"],
    ["plot", "--report", "ablate/ablation.csv", "--out", "plots/ablation_trans.svg"],
    ["plot", "--report", "ablate/ablation.csv", "--metric", "rot",
     "--out", "plots/ablation_rot.svg"],
    ["plot", "--report", "sweep/sweep.csv", "--out", "plots/sweep.svg"],
    ["plot", "--report", "eval/segment_errors.csv", "--out", "plots/segment_errors.svg"],
    ["plot", "--report", "eval/ate.csv", "--out", "plots/ate.svg"],
    ["plot", "--report", "eval/ate_cdf.csv", "--out", "plots/ate_cdf.svg"],
)


def artifact_digests(root: Path) -> dict[str, str]:
    """Run every command with ``root`` as the working directory (so no absolute path
    reaches a file) and return each written file's digest by its relative path."""
    (root / "run.ini").write_text(CONFIG_TEXT)
    (root / "plots").mkdir()
    for argv in COMMANDS:
        if cli.main(argv) != 0:
            raise RuntimeError(f"curvo {' '.join(argv)} failed")
    digests = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p.name != "run.ini"):
        data = path.read_bytes()
        if path.name == "manifest.txt":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith(b"out_dir = "))
        digests[path.relative_to(root).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests


def read_digests() -> tuple[str, dict[str, str]]:
    version, *lines = DIGESTS.read_text().splitlines()
    return version.removeprefix("numpy "), {
        name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def test_every_artifact_keeps_its_bytes(tmp_path, monkeypatch):
    version, expected = read_digests()
    assert np.__version__ == version, (
        f"{DIGESTS.name} was written with numpy {version}; numpy {np.__version__} may round "
        "differently, so rewrite the digests on this version and check the change")
    monkeypatch.chdir(tmp_path)
    got = artifact_digests(tmp_path)
    missing, extra = sorted(expected.keys() - got.keys()), sorted(got.keys() - expected.keys())
    assert not missing and not extra, f"files not written: {missing}; files not pinned: {extra}"
    changed = [name for name in expected if got[name] != expected[name]]
    assert not changed, f"bytes changed: {', '.join(changed)}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        digests = artifact_digests(Path(scratch))
    DIGESTS.write_text(f"numpy {np.__version__}\n" + "".join(
        f"{digest}  {name}\n" for name, digest in digests.items()))
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
