"""The README matches the code: its library quick start runs, every
`qpolicy ...` line of its command line bash block exits 0, and its settings
table lists what each command reads."""
import pathlib
import re
import shlex

from qpolicy.cli import COMMANDS, EXIT_OK, main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _first_block(heading: str, language: str) -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index(heading):]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def _readme_commands() -> list[str]:
    block = _first_block("## Command line", "bash")
    lines = block.replace("\\\n", " ").splitlines()
    return [line.strip() for line in lines if line.strip().startswith("qpolicy ")]


def test_readme_block_is_found():
    commands = _readme_commands()
    assert [c.split()[1] for c in commands] == [
        "gen-env", "gen-env", "run", "ablate", "compare-queries", "noise-study", "resources"]


def test_readme_quick_start_runs(capsys):
    exec(compile(_first_block("## Library quick start", "python"), "README.md", "exec"), {})
    error, queries = capsys.readouterr().out.split()
    assert float(error) >= 0.0 and int(queries) > 0


def test_readme_commands_exit_0(tmp_path, monkeypatch, capsys):
    # in order, in one directory: the study commands read the env files gen-env wrote
    monkeypatch.chdir(tmp_path)
    for command in _readme_commands():
        assert main(shlex.split(command)[1:]) == EXIT_OK, (command, capsys.readouterr().err)


def test_readme_settings_table_matches_the_cli():
    rows = re.findall(r"^\| `([a-z-]+)` \| `([a-z_ ]+)`", README.read_text(encoding="utf-8"),
                      re.MULTILINE)
    assert {command: names.split() for command, names in rows} == {
        command: list(defaults) for command, (_, _, defaults) in COMMANDS.items()}
