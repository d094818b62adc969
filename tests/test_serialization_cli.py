import hashlib
import json
import random

import pytest

from constructions import find_basic_2x2_tuple
from fuchsmc import reduction
from fuchsmc import serialization as ser
from fuchsmc.cli import main
from fuchsmc.errors import ParseError
from fuchsmc.generate import rigid_family_realization
from fuchsmc.linalg import ExactMatrix
from fuchsmc.okubo import OkuboSystem, onf_from_scf, scf_from_onf
from fuchsmc.reduction import idx_of
from fuchsmc.scalars import gr
from fuchsmc.schlesinger import SchlesingerTuple, index_of_rigidity
from fuchsmc.spectral import RiemannScheme

E = ExactMatrix.from_rows


def rank1_onf():
    scheme = RiemannScheme([0], [[(gr(-3), 1)], [(gr(3), 1)]])
    return OkuboSystem([1], [0], E([[3]]), scheme)


class TestSerialization:
    def test_scf_round_trip(self):
        rng = random.Random(1)
        t = SchlesingerTuple(
            [0, gr("1/2"), gr("1+i")],
            [E([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]) for _ in range(3)],
        )
        data = ser.scf_to_json(t)
        back = ser.scf_from_json(json.loads(json.dumps(data)))
        assert back == t

    def test_onf_round_trip_with_scheme(self):
        o = rank1_onf()
        back = ser.onf_from_json(json.loads(json.dumps(ser.onf_to_json(o))))
        assert back == o
        assert back.scheme is not None
        assert back.scheme.tuple_ == o.scheme.tuple_

    def test_detects_format(self):
        o = rank1_onf()
        assert isinstance(ser.system_from_json(ser.onf_to_json(o)), OkuboSystem)
        t = SchlesingerTuple([0], [E([[1]])])
        assert isinstance(ser.system_from_json(ser.scf_to_json(t)), SchlesingerTuple)

    def test_bad_files_rejected(self):
        with pytest.raises(ParseError):
            ser.system_from_json({"nope": 1})
        with pytest.raises(ParseError):
            ser.scf_from_json({"poles": ["0"], "matrices": [[["x"]]]})

    def test_operation_lines(self):
        text = '{"op":"mc","lambda":"2"}\n\n{"op":"add","mu":["1"]}\n'
        ops = ser.parse_operations(text)
        assert [o["op"] for o in ops] == ["mc", "add"]
        with pytest.raises(ParseError):
            ser.parse_operations("not json")
        with pytest.raises(ParseError):
            ser.parse_operations('{"noop": 1}')


@pytest.fixture
def workdir(tmp_path):
    inp = tmp_path / "in.json"
    ser.save_system(str(inp), rank1_onf())
    return tmp_path, inp


class TestApply:
    def test_empty_ops_is_identity(self, workdir):
        tmp, inp = workdir
        ops = tmp / "ops.jsonl"
        ops.write_text("")
        out = tmp / "out.json"
        assert main(["apply", "--input", str(inp), "--ops", str(ops), "--output", str(out)]) == 0
        assert json.loads(out.read_text()) == json.loads(inp.read_text())

    def test_extension_pipeline_gives_hypergeometric(self, workdir, capsys):
        tmp, inp = workdir
        ops = tmp / "ops.jsonl"
        ops.write_text(
            '{"op":"mc","lambda":"-1"}\n'
            '{"op":"appendpole","t":"1"}\n'
            '{"op":"add","mu":["0","4"]}\n'
            '{"op":"mc","lambda":"1"}\n'
        )
        out = tmp / "out.json"
        assert main(["apply", "--input", str(inp), "--ops", str(ops), "--output", str(out)]) == 0
        result = ser.load_system(str(out))
        assert result.rank == 2
        cols = result.scheme.columns
        assert [(str(l), m) for l, m in cols[0]] == [("-5", 1), ("-1", 1)]
        # the sidecar log replays to the identical output
        log_lines = (tmp / "out.json.log").read_text().splitlines()
        assert len(log_lines) == 4
        replay_ops = tmp / "replay.jsonl"
        replay_ops.write_text(
            "\n".join(json.dumps(json.loads(l)["op"]) for l in log_lines)
        )
        out2 = tmp / "out2.json"
        main(["apply", "--input", str(inp), "--ops", str(replay_ops), "--output", str(out2)])
        assert out.read_text() == out2.read_text()

    def test_collision_then_convert_exits_1(self, tmp_path):
        # two points so the collapsed convolution stays constructible
        t = SchlesingerTuple(
            [0, 1],
            [E([[2]]), E([[3]])],
            RiemannScheme([0, 1], [[(gr(-5), 1)], [(gr(2), 1)], [(gr(3), 1)]]),
        )
        inp = tmp_path / "t.json"
        ser.save_system(str(inp), t)
        ops = tmp_path / "ops.jsonl"
        ops.write_text('{"op":"mc","lambda":"-5"}\n{"op":"convert"}\n')
        rc = main(["apply", "--input", str(inp), "--ops", str(ops), "--output", str(tmp_path / "o.json")])
        assert rc == 1

    def test_parse_error_exits_2(self, workdir):
        tmp, inp = workdir
        ops = tmp / "ops.jsonl"
        ops.write_text("garbage")
        rc = main(["apply", "--input", str(inp), "--ops", str(ops), "--output", str(tmp / "o.json")])
        assert rc == 2

    def test_missing_input_exits_2(self, tmp_path):
        rc = main(["idx", "--input", str(tmp_path / "nope.json")])
        assert rc == 2

    def test_ops_file_that_is_not_utf8_exits_2(self, workdir, capsys):
        tmp, inp = workdir
        ops = tmp / "ops.jsonl"
        ops.write_bytes(NOT_UTF8)
        rc = main(["apply", "--input", str(inp), "--ops", str(ops), "--output", str(tmp / "o.json")])
        assert rc == 2
        assert "parse error" in capsys.readouterr().err


# operation-log entries that name a malformed or missing field, and that
# field; each was once read as something else ("21" as [2, 1], 1.7 and true
# as 1) or raised a KeyError, ValueError or TypeError (exit 1)
MALFORMED_OPS = {
    "sigma as a string": ({"op": "perm", "sigma": "21"}, "sigma"),
    "mu as a string": ({"op": "add", "mu": "12"}, "mu"),
    "a float j": ({"op": "swapinf", "j": 1.7}, "j"),
    "a boolean j": ({"op": "swapinf", "j": True}, "j"),
    "a missing lambda": ({"op": "mc"}, "lambda"),
    "a text j": ({"op": "swapinf", "j": "x"}, "j"),
    "sigma as a number": ({"op": "perm", "sigma": 5}, "sigma"),
    "a boolean in mu": ({"op": "add", "mu": ["1", True]}, "mu"),
    "a float lambda": ({"op": "euler", "lambda": 0.5}, "lambda"),
    "a bad scalar t": ({"op": "appendpole", "t": "1 2"}, "t"),
    "a missing rho2": ({"op": "extend", "rho1": "1", "t": "5"}, "rho2"),
    "a float j to restrict": ({"op": "restrict", "j": 1.0}, "j"),
}


class TestOperationFields:
    @pytest.mark.parametrize("case", sorted(MALFORMED_OPS))
    def test_malformed_field_is_a_parse_error(self, tmp_path, capsys, case):
        entry, field = MALFORMED_OPS[case]
        with pytest.raises(ParseError, match=f'"{field}"'):
            ser.apply_operation(rigid_family_realization(3), entry)
        inp, ops = tmp_path / "in.json", tmp_path / "ops.jsonl"
        ser.save_system(str(inp), rigid_family_realization(3))
        ops.write_text(json.dumps(entry) + "\n")
        assert main(["apply", "--input", str(inp), "--ops", str(ops), "--output", str(tmp_path / "o.json")]) == 2
        err = capsys.readouterr().err
        assert "parse error" in err and f'"{field}"' in err

    def test_scalars_may_be_strings_or_integers(self):
        t = rigid_family_realization(3)
        for text, number in (({"op": "mc", "lambda": "2"}, {"op": "mc", "lambda": 2}),
                             ({"op": "add", "mu": ["1", "-2"]}, {"op": "add", "mu": [1, -2]})):
            a, b = ser.apply_operation(t, text), ser.apply_operation(t, number)
            assert ser.system_to_json(a) == ser.system_to_json(b)
        assert ser.apply_operation(t, {"op": "perm", "sigma": [2, 1]}).poles == (gr(1), gr(0))


# a UTF-16 byte-order mark and a NUL: no UTF-8 decoder accepts the first byte
NOT_UTF8 = b"\xff\xfe\x00"


@pytest.mark.parametrize("command", ["reduce", "scheme"])
def test_input_file_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    inp = tmp_path / "bad.json"
    inp.write_bytes(NOT_UTF8)
    assert main([command, "--input", str(inp)]) == 2
    assert "parse error" in capsys.readouterr().err


class TestReduce:
    def test_rank_one_input_zero_steps(self, workdir, capsys):
        tmp, inp = workdir
        assert main(["reduce", "--input", str(inp), "--mode", "katz"]) == 0
        out = capsys.readouterr().out
        assert "reached rank 1" in out and "step 1" not in out

    @pytest.mark.parametrize("text", ["{bad", "111,21,21,21"])
    def test_reduce_on_text_that_is_not_json_exits_2(self, tmp_path, capsys, text):
        # a spectral type is read only with --level scheme
        inp = tmp_path / "bad.txt"
        inp.write_text(text)
        assert main(["reduce", "--input", str(inp)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_katz_matrix_mode_on_rigid_rank3(self, tmp_path, capsys):
        t = rigid_family_realization(3)
        inp = tmp_path / "t.json"
        ser.save_system(str(inp), t)
        assert main(["reduce", "--input", str(inp), "--mode", "katz"]) == 0
        out = capsys.readouterr().out
        assert "reached rank 1" in out
        assert "idx 2" in out

    def test_yokoyama_matrix_mode_on_rigid_rank3(self, tmp_path, capsys):
        t = rigid_family_realization(3)
        o = onf_from_scf(t)
        inp = tmp_path / "o.json"
        ser.save_system(str(inp), o)
        assert main(["reduce", "--input", str(inp), "--mode", "yokoyama"]) == 0
        out = capsys.readouterr().out
        assert "reached rank 1" in out

    def test_basic_tuple_reported_against_enumeration(self, tmp_path, capsys):
        from fuchsmc.katz import middle_convolution

        t = find_basic_2x2_tuple()
        onf_like = middle_convolution(t, 5)  # rank 3 system of the same family
        inp = tmp_path / "b.json"
        ser.save_system(str(inp), onf_like)
        assert main(["reduce", "--input", str(inp), "--mode", "katz"]) == 0
        out = capsys.readouterr().out
        assert "basic" in out and "11,11,11,11" in out and "D4t" in out

    def test_yokoyama_mode_stalls_at_the_minimal_stage(self, tmp_path, capsys):
        from fuchsmc.katz import middle_convolution

        t = find_basic_2x2_tuple()
        bridged = onf_from_scf(middle_convolution(t, 5))
        inp = tmp_path / "d4onf.json"
        ser.save_system(str(inp), bridged)
        assert main(["reduce", "--input", str(inp), "--mode", "yokoyama"]) == 0
        out = capsys.readouterr().out
        assert "minimal normal-form stage reached: 111,21,21,21" in out
        assert "11,11,11,11" in out and "D4t" in out

    def test_scheme_level_text_input(self, tmp_path, capsys):
        inp = tmp_path / "type.txt"
        inp.write_text("11111,41,11111")
        assert main(["reduce", "--input", str(inp), "--level", "scheme"]) == 0
        out = capsys.readouterr().out
        assert "reached rank 1" in out

    def test_yokoyama_scheme_level(self, tmp_path, capsys):
        t = rigid_family_realization(3)
        o = onf_from_scf(t)
        inp = tmp_path / "o.json"
        ser.save_system(str(inp), o)
        rc = main(["reduce", "--input", str(inp), "--mode", "yokoyama", "--level", "scheme"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "reached rank 1" in out


class TestVerifyTablesEnumerate:
    def test_verify_small_run_passes(self, capsys):
        assert main(["verify", "--seed", "3", "--count", "4", "--bound", "3"]) == 0
        out = capsys.readouterr().out
        assert "0 failures" in out

    def test_verify_count_zero_is_empty_and_passing(self, capsys):
        assert main(["verify", "--seed", "3", "--count", "0"]) == 0
        out = capsys.readouterr().out
        assert "0 checks, 0 failures" in out

    def test_verify_detects_corruption(self, capsys, monkeypatch):
        import fuchsmc.identities as ident

        real = ident.middle_convolution

        def corrupted(t, lam):
            out = real(t, lam)
            if out.rank > 1:
                mats = list(out.matrices)
                mats[0] = mats[0].shift(1)
                return type(out)(out.poles, mats, None)
            return out

        monkeypatch.setattr(ident, "middle_convolution", corrupted)
        rc = main(["verify", "--seed", "3", "--count", "2", "--bound", "2"])
        assert rc == 3

    def test_tables_idx0(self, capsys):
        assert main(["tables", "--which", "idx0"]) == 0
        out = capsys.readouterr().out
        assert "4 rows matched" in out

    def test_tables_idx_minus2(self, capsys):
        assert main(["tables", "--which", "idx-2"]) == 0
        out = capsys.readouterr().out
        assert "13 rows matched" in out

    def test_verify_is_deterministic(self, capsys):
        main(["verify", "--seed", "5", "--count", "3", "--bound", "3"])
        first = capsys.readouterr().out
        main(["verify", "--seed", "5", "--count", "3", "--bound", "3"])
        second = capsys.readouterr().out
        assert first == second

    def test_enumerate_output(self, capsys):
        assert main(["enumerate", "--idx", "0", "--max-ord", "6", "--max-points", "4"]) == 0
        out = capsys.readouterr().out
        assert "11,11,11,11" in out and "111111,222,33" in out


def _with_scheme_columns(columns):
    return {"poles": ["0"], "matrices": [[["1"]]], "scheme": {"points": ["inf", "0"], "columns": columns}}


# system files that break the documented shape, each in one place
MALFORMED = {
    "pole as a number": {"poles": [0], "matrices": [[["1"]]]},
    "entry as a number": {"poles": ["0"], "matrices": [[[1]]]},
    "part without mult": _with_scheme_columns([[{"value": "-1"}], [{"value": "1", "mult": 1}]]),
    "part as a string": _with_scheme_columns([["-1"], [{"value": "1", "mult": 1}]]),
    "mult not a number": _with_scheme_columns([[{"value": "-1", "mult": "x"}], [{"value": "1", "mult": 1}]]),
    "block as a string": {"blocks": ["a"], "poles": ["0"], "A": [["1"]]},
    # scalars outside the grammar, which int() alone would read as 12, 1000 and -1/2
    "pole with a space inside": {"poles": ["1 2"], "matrices": [[["1"]]]},
    "entry with an underscore": {"poles": ["0"], "matrices": [[["1_000"]]]},
    "negative denominator": {"poles": ["0"], "matrices": [[["1/-2"]]]},
}


# the declared scheme of the rigid n = 6 normal form (blocks 1 and 5), with
# the column [0:5 6:1] at the first point changed in one place
BAD_RIGID6_COLUMNS = {
    "a finite label moved": [{"value": "0", "mult": 5}, {"value": "7", "mult": 1}],
    "a structural zero resized": [{"value": "0", "mult": 4}, {"value": "6", "mult": 2}],
}


@pytest.mark.parametrize("case", sorted(BAD_RIGID6_COLUMNS))
def test_load_refuses_a_wrong_declared_scheme(tmp_path, capsys, case):
    data = ser.onf_to_json(onf_from_scf(rigid_family_realization(6)))
    assert data["blocks"] == [1, 5]
    assert data["scheme"]["columns"][1] == [{"value": "0", "mult": 5}, {"value": "6", "mult": 1}]
    data["scheme"]["columns"][1] = BAD_RIGID6_COLUMNS[case]
    inp = tmp_path / "bad.json"
    inp.write_text(json.dumps(data))
    assert main(["scheme", "--input", str(inp)]) == 3
    assert "declared scheme does not match the system" in capsys.readouterr().err


class TestIdxSchemeConvert:
    def test_idx_of_type_text(self, capsys):
        assert main(["idx", "--type", "111,21,21,21"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_idx_of_file(self, workdir, capsys):
        tmp, inp = workdir
        assert main(["idx", "--input", str(inp)]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_scheme_print_and_infer(self, tmp_path, capsys):
        t = SchlesingerTuple([0, 1], [E([[2]]), E([[3]])])
        inp = tmp_path / "t.json"
        ser.save_system(str(inp), t)
        assert main(["scheme", "--input", str(inp), "--infer"]) == 0
        out = capsys.readouterr().out
        assert "verified" in out and "1,1,1" in out

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_file_is_a_parse_error(self, tmp_path, capsys, case):
        inp = tmp_path / "bad.json"
        inp.write_text(json.dumps(MALFORMED[case]))
        with pytest.raises(ParseError):
            ser.load_system(str(inp))
        assert main(["scheme", "--input", str(inp)]) == 2
        assert main(["scheme", "--input", str(inp), "--infer"]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_convert_round_trip(self, workdir, tmp_path):
        tmp, inp = workdir
        mid = tmp_path / "scf.json"
        back = tmp_path / "onf.json"
        assert main(["convert", "--input", str(inp), "--output", str(mid)]) == 0
        assert isinstance(ser.load_system(str(mid)), SchlesingerTuple)
        assert main(["convert", "--input", str(mid), "--output", str(back)]) == 0
        o2 = ser.load_system(str(back))
        assert isinstance(o2, OkuboSystem)
        assert o2.block_sizes == (1,)

    def test_restrict_op_reads_mu_from_scheme(self, tmp_path):
        o = rank1_onf()
        from fuchsmc.yokoyama import ExtensionParams, extend_direct

        ext = extend_direct(o, ExtensionParams(1, 5, 1))
        inp = tmp_path / "e.json"
        ser.save_system(str(inp), ext)
        ops = tmp_path / "ops.jsonl"
        ops.write_text('{"op":"restrict","j":2}\n')
        out = tmp_path / "r.json"
        assert main(["apply", "--input", str(inp), "--ops", str(ops), "--output", str(out)]) == 0
        assert ser.load_system(str(out)).rank == 1


# sha256 of `fuchsmc reduce` stdout on onf_from_scf(rigid_family_realization(n)),
# recorded before idx and the rank of A were read from verified schemes
RECORDED_REDUCE = {
    (3, "katz"): "a932595b75de59afce792f578080d8425bd8a9ada7ee7981deefd2d66234f0da",
    (3, "yokoyama"): "f48acec8f58e4ed1493f27d489121a74f0bf8d78bca72f1b7e19c55e9332085c",
    (4, "katz"): "13b6b9f2f1ca402f0ab0e1651c64026fbaef76f64b66c2649b526f516c8ee26f",
    (4, "yokoyama"): "4703bc351d1aaafe419f8c8daaf6bc92b4b4b332b6dde5c3a2c3b7032a93577f",
    (5, "katz"): "b9052af1cc0bcdcab726cfd650dcbb95f1d6733fbba781ce60b948a261256307",
    (5, "yokoyama"): "626d83615dadee74c2d1615863a65c05f61a9909a5a6eccdea4ed6e0c9c865f7",
    (6, "katz"): "25816824d97d2e1e40f894290d9311a98dc806f07fd2eb54a6ec93309904d44a",
    (6, "yokoyama"): "f86531205bfd763e32014bcd376ce75d8298f1920845c6e0736da2da6ee07d9e",
    (7, "katz"): "1347e1a163fb9b9027d7d31a0601188bcc2d046560c4ddbed41ff0658f1d816f",
    (7, "yokoyama"): "cd64fec1cc90c1ee3ba65299764ac035460c460d50428f204be87c7be6a20efb",
}
RECORDED_APPLY_OPS = [
    {"op": "extend", "rho1": "1", "rho2": "2", "t": "5"},
    {"op": "euler", "lambda": "7"},
    {"op": "restrict", "j": 1},
    {"op": "convert"},
    {"op": "mc", "lambda": "3"},
    {"op": "add", "mu": ["1", "0"]},
]
RECORDED_APPLY_LOG = "f48e1e8e02637d4a45e973a13762adaeca657ca81ed3742b134713e1d798eb62"


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _residues(system):
    return scf_from_onf(system) if isinstance(system, OkuboSystem) else system


class TestRecordedCliOutputs:
    @pytest.mark.parametrize("n, mode", sorted(RECORDED_REDUCE))
    def test_reduce_stdout(self, n, mode, tmp_path, capsys, monkeypatch):
        inp = tmp_path / "o.json"
        ser.save_system(str(inp), onf_from_scf(rigid_family_realization(n)))
        stages = []
        monkeypatch.setattr(
            "fuchsmc.reduction._system_stage",
            lambda system, idx0, real=reduction._system_stage: stages.append(system) or real(system, idx0),
        )
        assert main(["reduce", "--input", str(inp), "--mode", mode]) == 0
        assert _sha(capsys.readouterr().out) == RECORDED_REDUCE[n, mode]
        # idx read from each stage's verified scheme is the commutant count
        assert len(stages) == n - 1
        for system in stages:
            assert idx_of(system) == index_of_rigidity(_residues(system).with_scheme(None)) == 2

    def test_apply_log(self, tmp_path):
        inp, ops, out = tmp_path / "o.json", tmp_path / "ops.jsonl", tmp_path / "out.json"
        ser.save_system(str(inp), onf_from_scf(rigid_family_realization(3)))
        ops.write_text("".join(json.dumps(op) + "\n" for op in RECORDED_APPLY_OPS))
        assert main(["apply", "--input", str(inp), "--ops", str(ops), "--output", str(out)]) == 0
        assert _sha((tmp_path / "out.json.log").read_text()) == RECORDED_APPLY_LOG
        system = ser.load_system(str(out))
        assert system.scheme is not None
        assert idx_of(system) == index_of_rigidity(_residues(system).with_scheme(None))

    def test_idx_of_a_system_with_a_scheme(self, tmp_path, capsys):
        o = onf_from_scf(rigid_family_realization(5))
        inp = tmp_path / "o.json"
        ser.save_system(str(inp), o)
        assert main(["idx", "--input", str(inp)]) == 0
        assert capsys.readouterr().out == "2\n"
        assert index_of_rigidity(scf_from_onf(o.with_scheme(None))) == 2
