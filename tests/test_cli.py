import json

from ut_lab.catalog import build_named, format_group_file
from ut_lab.cli import main
from ut_lab.report import Report


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def report_from_json(text: str) -> Report:
    """Parse a `--json` report back, field by field; a missing key fails."""
    data = json.loads(text)
    group = data["group"]
    return Report(
        command=data["command"],
        group_name=group["name"],
        degree=group["degree"],
        order=group["order"],
        verdicts=data["verdicts"],
        witnesses=data["witnesses"],
        methods=data["methods"],
        tables=data["tables"],
        elapsed_s=data["elapsed_s"],
        error=data["error"],
    )


class TestExitCodes:
    def test_holds_is_zero(self, capsys):
        code, _ = run(capsys, "ut", "--group", "catalog:S4@4", "--k", "2")
        assert code == 0

    def test_fails_is_one(self, capsys):
        code, out = run(capsys, "ut", "--group", "catalog:PSL(2,7)@8", "--k", "4")
        assert code == 1
        assert "witness" in out

    def test_error_is_two(self, capsys):
        # A bad argument, an unknown catalog group and a missing group file.
        for argv in (("agl", "--p", "4"),
                     ("ut", "--group", "catalog:NOSUCH", "--k", "3"),
                     ("ut", "--group", "file:/missing.grp", "--k", "3")):
            code = main(list(argv))
            assert code == 2, argv
            assert capsys.readouterr().err.startswith("error: "), argv


class TestJson:
    def test_roundtrip(self, capsys):
        code, out = run(
            capsys, "--json", "ut", "--group", "catalog:M11@12", "--k", "4"
        )
        assert code == 0
        report = report_from_json(out)
        assert report.group_name == "M11"
        assert report.degree == 12
        assert report.verdicts == {"4-ut": True}
        assert report.to_dict() == json.loads(out)

    def test_homog_witness_in_json(self, capsys):
        code, out = run(
            capsys, "--json", "homog", "--group", "catalog:ASL(2,3)@9", "--i", "3", "--j", "4"
        )
        assert code == 1
        report = report_from_json(out)
        (witness,) = report.witnesses.values()
        assert "{1,2,3}" in witness.replace(" ", "")


class TestCommands:
    def test_homog_holds(self, capsys):
        code, _ = run(capsys, "homog", "--group", "catalog:S5@5", "--i", "2", "--j", "2")
        assert code == 0

    def test_group_file(self, capsys, tmp_path):
        path = tmp_path / "mygroup.grp"
        path.write_text(format_group_file(build_named("AGL(1,5)")))
        code, out = run(
            capsys, "homog", "--group", f"file:{path}", "--i", "4", "--j", "5"
        )
        assert code == 0
        assert "AGL(1,5)" in out

    def test_regular_map(self, capsys):
        code, out = run(
            capsys, "regular", "--group", "catalog:C6@6", "--map", "1,1,3,3,5,5"
        )
        assert code == 0
        code, _ = run(capsys, "regular", "--group", "catalog:S4@4", "--map", "1,2,3,3")
        assert code == 0

    def test_regular_rank(self, capsys):
        code, _ = run(capsys, "regular", "--group", "catalog:PGL(2,7)@8", "--rank", "4")
        assert code == 0
        code, _ = run(capsys, "regular", "--group", "catalog:PSL(2,7)@8", "--rank", "4")
        assert code == 1

    def test_agl_table(self, capsys):
        code, out = run(capsys, "agl", "--p", "13")
        assert code == 1
        assert "c = 4" in out

    def test_agl_sieve(self, capsys):
        code, out = run(capsys, "--json", "agl", "--sieve-limit", "50")
        assert code == 0
        report = report_from_json(out)
        (rows,) = report.tables.values()
        assert any(row.startswith("11\t") for row in rows)
        assert any(row.startswith("23\t") for row in rows)
        assert any(row.startswith("47\t") for row in rows)

    def test_ut_method_extend(self, capsys):
        code, out = run(
            capsys, "ut", "--group", "catalog:PSL(2,13)", "--k", "3",
            "--method", "extend",
        )
        assert code == 0
        assert "[extension]" in out

    def test_ut_witness_flag(self, capsys):
        code, out = run(
            capsys,
            "ut", "--group", "catalog:AGL(1,17)", "--k", "3", "--witness",
        )
        assert code == 1
        assert "has no section for" in out

    def test_verify_small(self, capsys):
        code, out = run(capsys, "verify", "--suite", "small")
        assert code == 0
        assert "[C1] PASS" in out
