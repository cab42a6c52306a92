"""Fail when a recorded mutant of ``src/facil`` survives tier-1.

Each entry of ``MUTANTS`` names a file of ``src/facil``, an exact source
text in it, the text's replacement and what the mutant breaks.  An entry
whose text matches no site of its file, or several, fails before any mutant
runs, so the table cannot go stale.  For each mutant the script copies
``src/`` and ``tests/`` to a temporary directory, links in the rest of the
checkout (tests read ``README.md``, ``bench/`` and ``.github/``), applies the
mutant to the copy and runs tier-1 there with ``-x -q -p no:cacheprovider``.
The first failing test catches the mutant; a run that passes lets it
survive.  A mutant that behaves as the program does may be listed with
``equivalent=True``, its reason saying why; its site is checked but it is
not run.  The exit code is 1 if any entry is stale or any mutant survives,
else 0.

Usage: python .github/scripts/mutants.py [pytest arguments in place of ``tests``]
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "facil"
TIMEOUT_S = 600  # a copy whose tier-1 has not ended by then counts as caught


class Mutant(NamedTuple):
    file: str  # a module of src/facil
    text: str  # exact source text; it must occur once in the file
    replacement: str
    reason: str  # what the mutant breaks, or why it cannot break anything
    equivalent: bool = False


MUTANTS = (
    # curation
    Mutant("curation.py", "return rates > tau", "return rates >= tau", "a rate at tau counts as above it"),
    Mutant(
        "curation.py",
        "    keys += order\n    keys.sort()\n    keys %= n\n    return keys",
        "    keys += n - 1 - order\n    keys.sort()\n    return n - 1 - keys % n",
        "tied scores are selected from the highest linear index down",
    ),
    Mutant("curation.py", "    return keys", "    return order", "the score order is numpy's unstable argsort"),
    Mutant(
        "curation.py",
        "scores += rates.sum(axis=others, keepdims=True)",
        "scores = scores + rates.sum(axis=others, keepdims=True)",
        "each axis's slab sums make a new score grid",
    ),
    # analysis
    Mutant(
        "analysis.py",
        "~seen[cells[:, m], cells[:, n]]",
        "~seen[cells[:, n], cells[:, m]]",
        "the pair matrix is indexed with its axes swapped",
    ),
    Mutant(
        "analysis.py",
        "r_squared = 1.0 if ss_tot == 0.0 else",
        "r_squared = 1.0 if ss_tot != 0.0 else",
        "every fit off an exact power law reports r2 = 1.0",
    ),
    Mutant("analysis.py", "if success < 0:", "if success <= 0:", "fit refuses a success rate of 0"),
    Mutant("analysis.py", "if n_demos < 0:", "if n_demos <= 0:", "a baseline sampler refuses a budget of 0"),
    Mutant("analysis.py", "if self.budget < 0:", "if self.budget <= 0:", "an outcome at budget 0 is refused"),
    Mutant(
        "analysis.py",
        "if budgets and budgets[0] < 0:",
        "if budgets and budgets[0] <= 0:",
        "compare_strategies refuses a budget of 0",
    ),
    # dataset
    Mutant(
        "dataset.py",
        "len(cells) * space.ndim >= 2 * space.cardinality",
        "len(cells) * space.ndim >= space.cardinality",
        "a support labels from the grid's label column at a 1x crossover",
    ),
    Mutant(
        "dataset.py",
        "label_column(space.shape)[cells]",
        "label_column(space.shape)[cells[::-1]]",
        "a dense support's labels are reversed",
    ),
    Mutant(
        "dataset.py", "counts.min(initial=1) < 1", "counts.min(initial=1) < 0", "add_many accepts a count of 0"
    ),
    Mutant(
        "dataset.py",
        '    if len(cells) != len(counts):\n        raise ValueError(f"{len(cells)} cells for {len(counts)} batch counts")\n',
        "",
        "add_many folds cells and counts of different lengths: one count broadcasts over every cell",
    ),
    # flywheel
    Mutant(
        "flywheel.py",
        "place[cells].reshape(-1)",
        "place[cells]",
        "a reduced stage's fold gets one row of world cells per curation cell, not one flat array",
    ),
    Mutant(
        "flywheel.py",
        "key=lambda j: (-(quotas[j] - base[j]), j)",
        "key=lambda j: (-(quotas[j] - base[j]), -j)",
        "apportion_counts gives tied remainders to the high index",
    ),
    Mutant("flywheel.py", "if not 0 < self.tau < 1:", "if not 0 < self.tau <= 1:", "tau = 1 is accepted"),
    Mutant(
        "flywheel.py",
        "converged = report.overall >= cfg.tau",
        "converged = report.overall > cfg.tau",
        "an overall rate equal to tau does not converge",
    ),
    Mutant(
        "flywheel.py",
        "ratios = [n / inherited.total for n in inherited.support_cells[1].tolist()]",
        "ratios = (inherited.support_cells[1] / inherited.total).tolist()",
        "the stage handoff divides its counts in numpy, which rounds differently past 2**53",
    ),
    Mutant(
        "flywheel.py",
        "    eval_tag_base: int = 0,\n) -> RunHistory:",
        "    eval_tag_base: int = 0,\n    curate_expansion=curate_expansion,\n) -> RunHistory:",
        "run_flywheel binds curate_expansion at import, past the tracer's lookup site",
    ),
    Mutant(
        "flywheel.py",
        'raise InputMemoryError(f"stages[{index - 1}]: does not fit in memory ({exc})") from exc',
        "raise",
        "a stage that grows the world past memory is blamed on space",
    ),
    # oracle
    Mutant(
        "oracle.py",
        "hi += np.right_shift(lo, _SHIFT32, out=lo)",
        "np.right_shift(lo, _SHIFT32, out=lo)",
        "Philox's mulhi drops the carry out of the middle column",
    ),
    Mutant(
        "oracle.py",
        "+ _PHILOX_ROUNDS * _PHILOX_BUMP",
        "+ 0 * _PHILOX_ROUNDS * _PHILOX_BUMP",
        "Philox's key is not bumped between rounds",
    ),
    Mutant(
        "oracle.py",
        "cell = cells[start:stop]",
        "cell = cells[: stop - start]",
        "every pass draws the streams of the first pass's cells",
    ),
    Mutant(
        "oracle.py",
        "hits[at] = sum(",
        "hits[index[: stop - start]] = sum(",
        "every pass writes its plain hits at the first pass's cells",
    ),
    Mutant(
        "oracle.py",
        "la < space.shape[da]",
        "la <= space.shape[da]",
        "a blacklist level equal to its axis's size fits the space",
    ),
    Mutant(
        "oracle.py",
        "np.copyto(p, 0.0, where=blocked)",
        "np.copyto(p, 0.0, where=blocked & (direct > 0))",
        "the blacklist cuts transfer only at cells that have direct demos",
    ),
    Mutant(
        "oracle.py",
        "np.maximum(p, -700.0, out=p)",
        "np.maximum(p, -30.0, out=p)",
        "the exponent is clamped at -30, where 1 - exp(x) is still below 1",
    ),
    # cli
    Mutant(
        "cli.py",
        "plain = set(map(type, values)) <= {int}",
        "plain = set(map(type, values)) <= {int, bool}",
        "the bulk index readers accept bools",
    ),
    Mutant(
        "cli.py",
        "if budgets[0] < 0 or list(budgets)",
        "if budgets[0] <= 0 or list(budgets)",
        "the config reader refuses a budget of 0",
    ),
    Mutant(
        "cli.py",
        "if per_cell * len(cells) >= 2**63:",
        "if per_cell * len(cells) > 2**63:",
        "check-comp at exactly 2**63 training demos is not blamed on check.demos_per_composition",
    ),
    Mutant(
        "cli.py",
        "below = int((last.report.rates < cfg.tau).sum())",
        "below = int((last.report.rates <= cfg.tau).sum())",
        "the not-converged line counts cells at tau as below it",
    ),
    Mutant(
        "cli.py",
        'print(f"error: {field}: does not fit in memory ({exc})", file=sys.stderr)\n        return 2',
        'print(f"error: {field}: does not fit in memory ({exc})", file=sys.stderr)\n        return 3',
        "an array sized past the host exits 3, as a fault of facil",
    ),
    Mutant(
        "cli.py",
        'config.flywheel.initial_compositions and str(exc).startswith("composition"))',
        "config.flywheel.initial_compositions)",
        "any ValueError of an exact expansion with initial compositions blames that field",
    ),
)


def stale(sources: dict[str, str], mutants: tuple[Mutant, ...]) -> list[str]:
    """One message per entry that does not match exactly one site of its file, or changes nothing."""
    messages = []
    for m in mutants:
        sites = sources[m.file].count(m.text) if m.file in sources else 0
        if sites != 1:
            messages.append(f"{m.file}: entry matches {sites} sites, not 1: {m.text!r}")
        elif m.replacement == m.text:
            messages.append(f"{m.file}: entry replaces its text with itself: {m.text!r}")
    return messages


def first_failure(output: str) -> str | None:
    """The test id of pytest's first FAILED or ERROR summary line."""
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", output, flags=re.MULTILINE)
    return found.group(1) if found else None


def run(mutant: Mutant, pytest_args: list[str]) -> str | None:
    """How tier-1 caught the mutant on a mutated copy of the checkout, or None if it passed."""
    with tempfile.TemporaryDirectory(prefix="facil_mutant_") as tmp:
        copy = Path(tmp)
        for entry in ROOT.iterdir():
            if entry.name in ("src", "tests"):
                ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
                shutil.copytree(entry, copy / entry.name, ignore=ignore)
            elif entry.name != ".git":
                (copy / entry.name).symlink_to(entry)
        module = copy / "src" / "facil" / mutant.file
        source = module.read_text(encoding="utf-8")
        module.write_text(source.replace(mutant.text, mutant.replacement), encoding="utf-8")
        pythonpath = os.pathsep.join(filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": pythonpath, "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *(pytest_args or ["tests"])]
        try:
            proc = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"a run past {TIMEOUT_S} s"
    if proc.returncode == 0:
        return None
    return first_failure(proc.stdout) or f"pytest exit code {proc.returncode}"


def main(argv: list[str]) -> int:
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    messages = stale(sources, MUTANTS)
    if messages:
        print("\n".join(messages))
        return 1
    start, survivors = time.perf_counter(), 0
    for m in MUTANTS:
        if m.equivalent:
            print(f"equivalent, not run: {m.file}: {m.reason}", flush=True)
            continue
        began = time.perf_counter()
        caught = run(m, argv)
        survivors += caught is None
        verdict = f"caught by {caught}" if caught else "SURVIVED"
        print(f"{verdict} ({time.perf_counter() - began:.1f} s): {m.file}: {m.reason}", flush=True)
    ran = sum(not m.equivalent for m in MUTANTS)
    print(f"{ran - survivors} of {ran} mutants caught in {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
