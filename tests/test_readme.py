"""README's examples run as written: its python blocks in order, in one
namespace, and every command whose section its INI example holds."""
from __future__ import annotations

import pathlib
import re

from predprey import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# the commands each section configures; [model] alone serves the two
# commands that need no section of their own
_COMMANDS = {
    "model": ("equilibria", "verify-assumptions"),
    "simulate": ("simulate",),
    "sweep": ("sweep",),
    "separatrix": ("separatrix",),
    "extinction": ("extinction",),
    "refuge": ("refuge-threshold",),
}


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_python_blocks_run(capsys):
    blocks = _blocks("python")
    assert blocks
    namespace: dict = {}
    for code in blocks:
        exec(compile(code, str(README), "exec"), namespace)
    # the quick start's stated result
    assert capsys.readouterr().out.splitlines()[-1].startswith("prey_extinct 0.14800179")


def test_readme_ini_commands_exit_0(tmp_path, capsys):
    [ini] = _blocks("ini")
    cfg = tmp_path / "scenario.ini"
    cfg.write_text(ini)
    sections = re.findall(r"^\[(\w+)\]", ini, re.M)
    commands = [c for s in sections for c in _COMMANDS.get(s, ())]
    assert sorted(commands) == sorted(cli._COMMANDS)
    for command in commands:
        code = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / command)])
        assert code == 0, (command, capsys.readouterr().err)
