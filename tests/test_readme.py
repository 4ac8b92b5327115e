import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_use_block_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(block, f"{README.name}: Library use", "exec"), {})
    report_line, curve_line = capsys.readouterr().out.splitlines()
    rate, reason, invocations = report_line.split()
    assert float(rate) > 0.0 and reason == "ok" and int(invocations) > 0
    # The documented curve, at the reported minimizer, gives the reported rate.
    assert [float(v) for v in curve_line.split()][0] == float(rate)
