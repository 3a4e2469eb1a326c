"""Seeded fuzz of the command line, walked from the subcommand table.

Every option of every row of foldmap.cli.COMMANDS gets a value drawn by its
kind: a valid one, NaN, inf, '', a negative number, a huge number or junk.
run() must answer each command line with a documented exit code and never
raise. Huge values go out only with --dry-run, so nothing heavy is computed.
"""

import random

import pytest

from foldmap.cli import COMMANDS, REQUIRED, run

CASES_PER_COMMAND = 60

VALID = {
    "int": ["0", "1", "2", "3", "5", "7", "12", "17"],
    "float": ["0", "0.05", "0.2", "0.5", "0.9", "1", "1.2"],
    "ints": ["7,17", "3", "2,5,7"],
    "alpha": ["inv-sqrt2", "golden-conj", "e-minus-2", "0.7071067811865476", "0.3"],
    "dist": ["two-point:inv-sqrt2", "two-point:golden-conj", "0.3:0.5,1.0:0.5"],
}
HOSTILE = {
    "int": ["-1", "-3", "", "x", "1.5", "10**6", "nan"],
    "float": ["nan", "inf", "-inf", "NaN", "-0.5", "", "x", "1e400", "0x1p-3"],
    "ints": ["0", "-3", "", "x", "7,", ",", "1,-2", "1.5", "nan"],
    "alpha": ["", "nan", "inf", "0", "1", "-0.5", "x", "1e400", "two-point:0.5"],
    "dist": ["", "x", "1:x", "x:1", ":", "1:1:1", "two-point:", "two-point:nan",
             "0.3:nan", "inf:1", "-1:1", "0.5:0.5", "0.3:0.5,0.3:0.5", "0.3:0.5,"],
    "choice": ["", "x", "JSON", "dot,csv"],
}
HUGE = {
    "int": ["1" + "0" * 30, "-" + "9" * 25, "9" * 400],
    "float": ["1e300", "-1e300", "1.7976931348623157e308", "5e-324"],
    "ints": ["1" + "0" * 30, "1," + "9" * 25],
    "alpha": ["0." + "9" * 40],
    "dist": ["1e300:1"],
}


def _value(rng, arg):
    """A value for arg and whether it may only be sent with --dry-run."""
    pool = list(arg.choices) if arg.kind == "choice" else VALID[arg.kind]
    draw = rng.random()
    if draw < 0.8:
        return rng.choice(pool), False
    if draw < 0.95 or arg.kind not in HUGE:
        return rng.choice(HOSTILE[arg.kind if arg.kind in HOSTILE else "choice"]), False
    return rng.choice(HUGE[arg.kind]), True


def _command_line(rng, row, tmp_path):
    argv = [row.name]
    dry = rng.random() < 0.25
    for arg in row.args:
        if arg.kind == "switch":
            if rng.random() < 0.5:
                argv.append(arg.flag)
            continue
        if rng.random() < (0.02 if arg.default is REQUIRED else 0.4):
            continue  # a missing required option is a usage error
        value, huge = _value(rng, arg)
        dry = dry or huge
        argv.append(f"{arg.flag}={value}")
    draw = rng.random()
    if draw < 0.05:
        argv.append(f"--out={tmp_path / 'missing' / 'report'}")
    elif draw < 0.1:
        argv.append(f"--out={tmp_path / 'report'}")
    if dry:
        argv.append("--dry-run")
    return argv


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_every_command_line_exits_cleanly(capsys, tmp_path, name):
    rng = random.Random(f"cli-fuzz:{name}")
    for _ in range(CASES_PER_COMMAND):
        argv = _command_line(rng, COMMANDS[name], tmp_path)
        try:
            code = run(argv)
        except (Exception, SystemExit) as exc:  # a traceback or an exit from inside run
            pytest.fail(f"{argv} raised {type(exc).__name__}: {exc}")
        assert code in (0, 1, 2, 3), argv
        capsys.readouterr()
