import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tandem.ingest import (
    CaseFormatError,
    CouplingEntry,
    CouplingMap,
    build_combined,
    feeder_network,
    parse_coupling_map,
    parse_feeder,
    parse_feeder_doc,
    parse_transmission,
)
from tandem.netmodel import BusKind, Connection, ElementKind, NetworkError, build_index_map, validate

from netgen import _assert_same, _combined_per_copy


def write_case(tmp_path, body, name="case.m"):
    p = tmp_path / name
    p.write_text(body)
    return p


MINI_CASE = """function mpc = mini
mpc.baseMVA = 100;
mpc.bus = [
\t1\t3\t0\t0\t0\t0\t1\t1\t0\t345\t1\t1.1\t0.9;
\t2\t1\t50\t20\t0\t5\t1\t1\t0\t345\t1\t1.1\t0.9;
];
mpc.gen = [
\t1\t0\t0\t300\t-300\t1.02\t100\t1\t250\t10;
];
mpc.branch = [
\t1\t2\t0.01\t0.1\t0.04\t250\t250\t250\t0\t0\t1\t-360\t360;
];
"""


class TestMatpower:
    def test_series_admittance(self, tmp_path):
        net = parse_transmission(write_case(tmp_path, MINI_CASE))
        y = complex(net.elements[0].y_series[0, 0])
        assert y == pytest.approx(1 / complex(0.01, 0.1))
        assert y.real == pytest.approx(0.9901, abs=1e-4)
        assert y.imag == pytest.approx(-9.9010, abs=1e-4)
        assert net.elements[0].b_charge == pytest.approx(0.04)

    def test_per_unit_load_shunt(self, tmp_path):
        net = parse_transmission(write_case(tmp_path, MINI_CASE))
        assert net.loads[0].s[0] == pytest.approx(0.5 + 0.2j)
        assert net.shunts[0].y[0] == pytest.approx(0.05j)
        assert net.base_mva == 100.0

    def test_slack_voltage_from_gen(self, tmp_path):
        net = parse_transmission(write_case(tmp_path, MINI_CASE))
        assert net.bus(1).kind is BusKind.SLACK
        assert net.bus(1).v0[0] == pytest.approx(1.02 + 0j)

    def test_open_branch_omitted(self, tmp_path):
        body = MINI_CASE.replace("\t-360\t360;", "\t-360\t360;", 1).replace(
            "\t0\t0\t1\t-360", "\t0\t0\t0\t-360"
        )
        net = parse_transmission(write_case(tmp_path, body))
        assert net.elements == ()

    def test_missing_bus_reference(self, tmp_path):
        body = MINI_CASE.replace("\t1\t2\t0.01", "\t1\t7\t0.01")
        with pytest.raises(CaseFormatError, match="missing bus 7"):
            parse_transmission(write_case(tmp_path, body))

    def test_zero_impedance_branch(self, tmp_path):
        body = MINI_CASE.replace("0.01\t0.1", "0\t0")
        with pytest.raises(CaseFormatError, match="zero-impedance"):
            parse_transmission(write_case(tmp_path, body))

    def test_bad_token_reports_line(self, tmp_path):
        body = MINI_CASE.replace("50\t20", "fifty\t20")
        with pytest.raises(CaseFormatError, match="line 5"):
            parse_transmission(write_case(tmp_path, body))

    @pytest.mark.parametrize("columns", [(0,), (6,), (12,), (6, 12)], ids=["first", "middle", "last", "two"])
    def test_bad_token_in_any_column_named_with_its_line(self, tmp_path, columns):
        # a row is converted in one call; the message still names the row's first bad token and its line
        lines = MINI_CASE.splitlines()
        tokens = lines[4].rstrip(";").split()
        for k in columns:
            tokens[k] = f"x{k}"
        lines[4] = "\t" + "\t".join(tokens) + ";"
        with pytest.raises(CaseFormatError) as info:
            parse_transmission(write_case(tmp_path, "\n".join(lines)))
        assert str(info.value) == f"line 5: bad numeric token 'x{columns[0]}'"

    def test_non_finite_value_reports_line_and_file(self, tmp_path):
        # unchecked, a NaN load reached the stamps and the CLI exited 4
        body = MINI_CASE.replace("50\t20", "nan\t20")
        with pytest.raises(CaseFormatError, match=r"^line 5: non-finite value nan in column 3 of case\.m$"):
            parse_transmission(write_case(tmp_path, body))

    @pytest.mark.parametrize(
        "old, new, column",
        [
            ("\t1\t3\t0\t0", "\t1.5\t3\t0\t0", 1),  # bus id
            ("\t2\t1\t50", "\t2\t1.5\t50", 2),  # bus type
            ("\t1\t0\t0\t300", "\t1.25\t0\t0\t300", 1),  # generator bus
            ("\t100\t1\t250", "\t100\t0.5\t250", 8),  # generator status
            ("\t1\t2\t0.01", "\t1\t2.5\t0.01", 2),  # branch to
            ("\t0\t0\t1\t-360", "\t0\t0\t0.5\t-360", 11),  # branch status
        ],
        ids=["bus-id", "bus-type", "gen-bus", "gen-status", "branch-to", "branch-status"],
    )
    def test_non_integral_id_type_or_status_refused(self, tmp_path, old, new, column):
        # unchecked, int() truncated these and a different case solved (exit 0)
        assert MINI_CASE.count(old) == 1
        with pytest.raises(CaseFormatError, match=rf"^line \d+: non-integral value [\d.]+ in column {column} of case\.m$"):
            parse_transmission(write_case(tmp_path, MINI_CASE.replace(old, new)))

    def test_integral_floats_kept(self, tmp_path):
        net = parse_transmission(write_case(tmp_path, MINI_CASE.replace("\t2\t1\t50", "\t2.0\t1.0\t50")))
        assert [(b.id, b.kind) for b in net.buses] == [(1, BusKind.SLACK), (2, BusKind.PQ)]

    def test_infinite_q_limits_kept(self, case9, tmp_path):
        # MATPOWER's "no limit"; NaN there is still refused
        body = case9.read_text().replace("\t300\t-300\t", "\tInf\t-Inf\t")
        gens = parse_transmission(write_case(tmp_path, body)).generators
        assert gens and all((g.q_min, g.q_max) == (-np.inf, np.inf) for g in gens)
        with pytest.raises(CaseFormatError, match="column 4"):
            parse_transmission(write_case(tmp_path, body.replace("Inf", "NaN", 1)))

    def test_transformer_tap_and_shift(self, tmp_path):
        body = MINI_CASE.replace("\t0\t0\t1\t-360", "\t0.98\t30\t1\t-360")
        net = parse_transmission(write_case(tmp_path, body))
        el = net.elements[0]
        assert el.kind is ElementKind.TRANSFORMER
        assert el.tap == pytest.approx(0.98)
        assert el.shift == pytest.approx(np.radians(30))

    def test_unknown_section_warned(self, tmp_path, caplog):
        body = MINI_CASE + "mpc.gencost = [\n\t2\t0\t0\t3\t0.1\t5\t0;\n];\n"
        with caplog.at_level("WARNING"):
            parse_transmission(write_case(tmp_path, body))
        assert any("gencost" in r.message for r in caplog.records)

    def test_bundled_cases_clean(self, case2, case9, case27, case_radial7, caplog):
        for path in (case2, case9, case27, case_radial7):
            with caplog.at_level("WARNING"):
                net = parse_transmission(path)
            assert validate(net) == []
        assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == []


FEEDER_DOC = {
    "schema": 1,
    "name": "f1",
    "head": "n1",
    "nominal_kv": 12.47,
    "nodes": [
        {"id": "n1", "phases": "abc", "kv": 12.47},
        {"id": "n2", "phases": "abc", "kv": 12.47},
        {"id": "n3", "phases": "b", "kv": 12.47},
    ],
    "lines": [
        {"from": "n1", "to": "n2", "phases": "abc", "length_miles": 1.0,
         "z_ohms_per_mile": [[[0.05, 0.12], [0, 0], [0, 0]],
                              [[0, 0], [0.05, 0.12], [0, 0]],
                              [[0, 0], [0, 0], [0.05, 0.12]]]},
        {"from": "n2", "to": "n3", "phases": "b", "length_miles": 0.5,
         "z_ohms_per_mile": [[[0.08, 0.16]]]},
    ],
    "transformers": [],
    "loads": [
        {"node": "n2", "connection": "wye", "kw": [100, 110, 90], "kvar": [30, 35, 25],
         "zip": [1.0, 0.0, 0.0]},
        {"node": "n3", "connection": "wye", "kw": [50], "kvar": [15], "zip": [0.5, 0.3, 0.2]},
    ],
    "capacitors": [{"node": "n2", "kvar": [50, 50, 50]}],
    "ders": [{"node": "n3", "kw": [20], "kvar": [0], "group": "pv"}],
}


def _with(doc, path, value):
    """A deep copy of ``doc`` with the entry at ``path`` (keys and list indices) set to ``value``."""
    doc = json.loads(json.dumps(doc))
    *parents, key = path
    rec = doc
    for part in parents:
        rec = rec[part]
    rec[key] = value
    return doc


def write_feeder(tmp_path, doc, name="f1.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


class TestFeeder:
    def test_diagonal_block_reciprocal(self, tmp_path):
        net = parse_feeder(write_feeder(tmp_path, FEEDER_DOC), base_mva=100.0)
        el = net.elements[0]
        z_base = 12.47**2 / 100.0
        z_pu = complex(0.05, 0.12) / z_base
        assert complex(el.y_series[0, 0]) == pytest.approx(1 / z_pu)
        assert complex(el.y_series[0, 1]) == 0

    def test_single_phase_lateral_block(self, tmp_path):
        net = parse_feeder(write_feeder(tmp_path, FEEDER_DOC))
        lat = net.elements[1]
        assert lat.phases == "b"
        assert lat.y_series.shape == (1, 1)

    def test_asymmetric_block_rejected(self, tmp_path):
        doc = json.loads(json.dumps(FEEDER_DOC))
        doc["lines"][0]["z_ohms_per_mile"][0][1] = [0.02, 0.05]
        with pytest.raises(CaseFormatError, match="not symmetric"):
            parse_feeder_doc(write_feeder(tmp_path, doc))

    def test_singular_block_rejected(self, tmp_path):
        doc = json.loads(json.dumps(FEEDER_DOC))
        zero = [[ [0.0, 0.0] ]*3 for _ in range(3)]
        doc["lines"][0]["z_ohms_per_mile"] = zero
        with pytest.raises(CaseFormatError, match="singular"):
            parse_feeder(write_feeder(tmp_path, doc))

    def test_first_singular_block_named(self, tmp_path):
        # the inverses are taken per group of same-size blocks; the error still names the first
        # singular branch in document order, here the third of four, before a singular 1x1 block
        doc = json.loads(json.dumps(FEEDER_DOC))
        doc["nodes"] += [{"id": "n4", "phases": "abc", "kv": 12.47}, {"id": "n5", "phases": "c", "kv": 12.47}]
        doc["lines"] += [
            {"from": "n2", "to": "n4", "phases": "abc", "length_miles": 1.0,
             "z_ohms_per_mile": [[[0.1, 0.2]] * 3] * 3},
            {"from": "n4", "to": "n5", "phases": "c", "length_miles": 1.0, "z_ohms_per_mile": [[[0.0, 0.0]]]},
        ]
        with pytest.raises(CaseFormatError, match="f1: singular impedance block on n2-n4"):
            parse_feeder(write_feeder(tmp_path, doc))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.data())
    def test_symmetry_test_is_allclose_against_the_transpose(self, tmp_path_factory, data):
        """An impedance block is refused as asymmetric exactly when ``np.allclose(rtol=0, atol=1e-12)``
        finds it not close to its transpose; offsets either side of 1e-12 by one ulp included."""
        part = st.sampled_from([0.0, 0.05, 0.12]) | st.floats(-2, 2)
        z = np.array([[complex(data.draw(part), data.draw(part)) for _ in range(3)] for _ in range(3)])
        z = np.where(np.triu(np.ones((3, 3), dtype=bool)), z, z.T)
        offsets = st.sampled_from([0.0, 5e-13, 1e-12, math.nextafter(1e-12, 0), math.nextafter(1e-12, 1), 2e-12])
        for _ in range(data.draw(st.integers(0, 2))):
            i, j, offset = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2)), data.draw(offsets)
            z[i, j] += offset * data.draw(st.sampled_from([1, -1, 1j, -1j]))
        rows = [[[v.real, v.imag] for v in row] for row in z.tolist()]
        path = write_feeder(tmp_path_factory.getbasetemp(), _with(FEEDER_DOC, ("lines", 0, "z_ohms_per_mile"), rows))
        if np.allclose(z, z.T, rtol=0, atol=1e-12):
            assert np.array_equal(parse_feeder_doc(path).branches[0].z_ohms, z)
        else:
            with pytest.raises(CaseFormatError, match=r"^f1\.json: line n1-n2: impedance block is not symmetric$"):
                parse_feeder_doc(path)

    def test_stacked_inverses_match_block_by_block(self, data_dir):
        doc = parse_feeder_doc(data_dir / "feeder_medium.json")
        net = feeder_network(doc, base_mva=100.0)
        z_base = doc.nominal_kv**2 / 100.0
        assert len({br.z_ohms.shape for br in doc.branches}) > 1
        for br, el in zip(doc.branches, net.elements):
            assert el.y_series.tobytes() == np.linalg.inv(br.z_ohms / z_base).tobytes()

    def test_phase_mismatch_rejected(self, tmp_path):
        doc = json.loads(json.dumps(FEEDER_DOC))
        doc["lines"][1]["phases"] = "c"  # n3 only carries b
        with pytest.raises(CaseFormatError, match="phases"):
            parse_feeder_doc(write_feeder(tmp_path, doc))

    def test_two_heads_rejected(self, tmp_path):
        doc = json.loads(json.dumps(FEEDER_DOC))
        doc["head"] = "missing"
        with pytest.raises(CaseFormatError, match="head"):
            parse_feeder_doc(write_feeder(tmp_path, doc))

    def test_load_per_unit_convention(self, tmp_path):
        # per-phase kW -> pu on the per-phase base (base/3): 100 kW -> 0.003 pu
        net = parse_feeder(write_feeder(tmp_path, FEEDER_DOC), base_mva=100.0)
        ld = next(l for l in net.loads if len(l.s) == 3)
        assert ld.s[0] == pytest.approx(3 * complex(100, 30) / 100e3)

    def test_per_unit_round_trip(self, tmp_path):
        doc = parse_feeder_doc(write_feeder(tmp_path, FEEDER_DOC))
        z_base = doc.nominal_kv**2 / 100.0
        net = feeder_network(doc, 100.0)
        z_pu = np.linalg.inv(net.elements[0].y_series)
        z_ohm = z_pu * z_base
        assert np.allclose(z_ohm, doc.branches[0].z_ohms, rtol=1e-12)

    @pytest.mark.parametrize("field, value", [
        ("kw", "300"), ("kw", True), ("kvar", ["30", 35, 25]), ("kw", [100, False, 90]), ("zip", "100"),
        ("zip", [True, False, False]),
    ], ids=["string", "boolean", "string-item", "boolean-item", "zip-string", "zip-booleans"])
    def test_load_numbers_must_be_json_numbers(self, tmp_path, field, value):
        # unchecked, a string was read digit by digit ("300" as 3, 0, 0) and true as 1.0
        doc = json.loads(json.dumps(FEEDER_DOC))
        doc["loads"][0][field] = value
        with pytest.raises(CaseFormatError, match=rf"^f1\.json: loads\[0\]: bad {field} "):
            parse_feeder_doc(write_feeder(tmp_path, doc))

    @pytest.mark.parametrize("entry", [[0.05, True], True, "0.05", ["0.05", 0.12]],
                             ids=["boolean-part", "boolean", "string", "string-part"])
    def test_impedance_entries_must_be_json_numbers(self, tmp_path, entry):
        doc = json.loads(json.dumps(FEEDER_DOC))
        doc["lines"][1]["z_ohms_per_mile"] = [[entry]]
        with pytest.raises(CaseFormatError, match=r"expected finite number or \[re, im\] pair"):
            parse_feeder_doc(write_feeder(tmp_path, doc))

    @pytest.mark.parametrize("path, named", [
        (("name",), "bad name"), (("head",), "bad head"), (("nodes", 1, "id"), "nodes[1]: bad id"),
        (("lines", 0, "from"), "lines[0]: bad from"), (("lines", 1, "to"), "lines[1]: bad to"),
        (("loads", 0, "node"), "loads[0]: bad node"), (("capacitors", 0, "node"), "capacitors[0]: bad node"),
        (("ders", 0, "node"), "ders[0]: bad node"), (("ders", 0, "group"), "ders[0]: bad group"),
    ], ids=["name", "head", "node-id", "line-from", "line-to", "load-node", "capacitor-node", "der-node", "der-group"])
    def test_names_must_be_json_strings(self, tmp_path, path, named):
        # unchecked, a number was read through str(): a document with ids 100, 101, ... parsed, as "100", ...
        doc = _with(FEEDER_DOC, path, 100)
        with pytest.raises(CaseFormatError) as info:
            parse_feeder_doc(write_feeder(tmp_path, doc))
        assert str(info.value) == f"f1.json: {named} 100"

    @pytest.mark.parametrize("path, value, named", [
        (("nominal_kv",), -12.47, "bad nominal_kv -12.47"), (("nominal_kv",), 0, "bad nominal_kv 0"),
        (("lines", 0, "length_miles"), -1, "lines[0]: bad length_miles -1"),
        (("lines", 1, "length_miles"), 0.0, "lines[1]: bad length_miles 0.0"),
        # unchecked, a node kv of 0 was named "bus 1", the node's index in its template, not a record of the file
        (("nodes", 1, "kv"), 0, "nodes[1]: bad kv 0"), (("nodes", 1, "kv"), -4.16, "nodes[1]: bad kv -4.16"),
    ], ids=["negative-kv", "zero-kv", "negative-length", "zero-length", "zero-node-kv", "negative-node-kv"])
    def test_lengths_and_nominal_kv_must_be_positive(self, tmp_path, path, value, named):
        # unchecked, a negative length negated the line's impedance and the case solved
        with pytest.raises(CaseFormatError) as info:
            parse_feeder_doc(write_feeder(tmp_path, _with(FEEDER_DOC, path, value)))
        assert str(info.value) == f"f1.json: {named}"

    @pytest.mark.parametrize("row", [[], [[0, 0], [0.05, 0.12]], [[0, 0], [0.05, 0.12], [0, 0], [0, 0]]],
                             ids=["empty", "short", "long"])
    def test_ragged_impedance_rows_named(self, tmp_path, row):
        # unchecked, np.array of ragged rows raised a bare ValueError, and the CLI exited 4
        doc = _with(FEEDER_DOC, ("lines", 0, "z_ohms_per_mile", 1), row)
        with pytest.raises(CaseFormatError) as info:
            parse_feeder_doc(write_feeder(tmp_path, doc))
        got = f"got rows of [3, {len(row)}, 3] entries"
        assert str(info.value) == f"f1.json: line n1-n2: expected 3x3 impedance block, {got}"

    def test_bundled_feeders_clean(self, data_dir):
        for name in ("feeder_small.json", "feeder_medium.json", "feeder_stressed.json"):
            net = parse_feeder(data_dir / name)
            assert validate(net) == []


class TestCombined:
    def make(self, tmp_path, entries, keep=False):
        case = write_case(tmp_path, MINI_CASE.replace("1\t2\t0.01", "1\t2\t0.01"))
        tnet = parse_transmission(case)
        fpath = write_feeder(tmp_path, FEEDER_DOC)
        doc = parse_feeder_doc(fpath)
        cmap = CouplingMap(entries=entries, base_dir=tmp_path)
        return build_combined(tnet, cmap, {"f1.json": doc}, keep_bus_load=keep)

    def test_port_created_and_load_replaced(self, tmp_path):
        net = self.make(tmp_path, [CouplingEntry("f1.json", 2)])
        assert len(net.ports) == 1
        assert all(l.bus != 2 for l in net.loads)  # Pd/Qd at the coupled bus removed
        assert validate(net) == []

    def test_keep_bus_load_flag(self, tmp_path):
        net = self.make(tmp_path, [CouplingEntry("f1.json", 2)], keep=True)
        assert any(l.bus == 2 and l.phases == "p" for l in net.loads)

    def test_zero_load_scale(self, tmp_path):
        net = self.make(tmp_path, [CouplingEntry("f1.json", 2, load_scale=0.0)])
        feeder_loads = [l for l in net.loads if net.bus(l.bus).kind.is_distribution]
        assert feeder_loads == []

    def test_coupling_to_slack_rejected(self, tmp_path):
        with pytest.raises(CaseFormatError, match="not a PQ bus"):
            self.make(tmp_path, [CouplingEntry("f1.json", 1)])

    def test_duplicate_coupling_rejected(self, tmp_path):
        with pytest.raises(CaseFormatError, match="coupled twice"):
            self.make(tmp_path, [CouplingEntry("f1.json", 2), CouplingEntry("f1.json", 2)])

    def test_three_feeders_three_ports(self, case9, tmp_path):
        tnet = parse_transmission(case9)
        fpath = write_feeder(tmp_path, FEEDER_DOC)
        doc = parse_feeder_doc(fpath)
        entries = [CouplingEntry("f1.json", b) for b in (5, 7, 9)]
        net = build_combined(tnet, CouplingMap(entries, tmp_path), {"f1.json": doc})
        # enumeration: one port per entry, feeder bus ids disjoint per copy
        assert len(net.ports) == 3
        assert len({p.feeder_head for p in net.ports}) == 3
        assert len(net.buses) == 9 + 3 * 3
        assert validate(net) == []

    def test_repeated_feeder_parsed_once(self, data_dir, monkeypatch):
        # case9_feeder4 couples feeder_medium.json four times
        import tandem.ingest

        parsed = []

        def counting(path):
            parsed.append(path.name)
            return parse_feeder_doc(path)

        monkeypatch.setattr(tandem.ingest, "parse_feeder_doc", counting)
        net = tandem.ingest.load_combined_case(data_dir / "case9.m", data_dir / "case9_feeder4.json")
        assert len(net.ports) == 4
        assert parsed == ["feeder_medium.json"]

    def test_coupling_map_parser(self, tmp_path):
        p = tmp_path / "map.json"
        p.write_text(json.dumps({"schema": 1, "couplings": [
            {"feeder": "f1.json", "bus": 2, "load_scale": 0.5}]}))
        cmap = parse_coupling_map(p)
        assert cmap.entries[0].load_scale == 0.5
        p.write_text(json.dumps({"schema": 1, "couplings": [
            {"feeder": "a.json", "bus": 2}, {"feeder": "b.json", "bus": 2}]}))
        with pytest.raises(CaseFormatError, match="coupled twice"):
            parse_coupling_map(p)

    @pytest.mark.parametrize("couplings", [5, None, {"feeder": "f1.json", "bus": 2}], ids=["number", "null", "object"])
    def test_couplings_must_be_a_list(self, tmp_path, couplings):
        # unchecked, a number or null raised TypeError and an object was iterated by its keys
        p = tmp_path / "map.json"
        p.write_text(json.dumps({"schema": 1, "couplings": couplings}))
        with pytest.raises(CaseFormatError, match=r"^map\.json: couplings must be a list of records, got "):
            parse_coupling_map(p)

    @pytest.mark.parametrize("field, value", [("load_scale", "0.5"), ("load_scale", True), ("der_scale", False),
                                              ("feeder", 5), ("feeder", ["f1.json"])],
                             ids=["load_scale-string", "load_scale-boolean", "der_scale-boolean", "feeder-number",
                                  "feeder-list"])
    def test_coupling_values_must_have_their_json_type(self, tmp_path, field, value):
        # unchecked, "0.5" read as 0.5, true as 1.0, false as 0.0 and 5 as the file "5"
        p = tmp_path / "map.json"
        p.write_text(json.dumps({"schema": 1, "couplings": [{"feeder": "f1.json", "bus": 2, field: value}]}))
        with pytest.raises(CaseFormatError, match=rf"^map\.json: couplings\[0\]: bad {field} "):
            parse_coupling_map(p)

    @pytest.mark.parametrize("bus", [5.5, "5", True], ids=["fraction", "string", "boolean"])
    def test_coupling_bus_must_be_an_integer(self, tmp_path, bus):
        # unchecked, int() took 5.5 and "5" as bus 5 and true as bus 1
        p = tmp_path / "map.json"
        p.write_text(json.dumps({"schema": 1, "couplings": [{"feeder": "f1.json", "bus": bus}]}))
        with pytest.raises(CaseFormatError, match=rf"^map\.json: couplings\[0\]: bad bus {bus!r}$"):
            parse_coupling_map(p)
        p.write_text(json.dumps({"schema": 1, "couplings": [{"feeder": "f1.json", "bus": 5.0}]}))
        assert parse_coupling_map(p).entries[0].bus == 5


@pytest.mark.parametrize("keep_bus_load", [False, True])
def test_build_combined_matches_per_copy_feeders(data_dir, keep_bus_load):
    """Repeated, interleaved and rescaled feeders build the same network as the copy-by-copy reference."""
    tnet = parse_transmission(data_dir / "case27.m")
    pq = sorted(b.id for b in tnet.buses if b.kind is BusKind.PQ)
    names = ("feeder_small.json", "feeder_medium.json", "feeder_stressed.json")
    docs = {name: parse_feeder_doc(data_dir / name) for name in names}
    scales = [(1.0, 1.0), (1.0, 1.0), (0.5, 1.0), (1.0, 0.0), (1.2, 2.0), (1.0, 1.0), (0.0, 1.0), (0.5, 1.0)]
    entries = [CouplingEntry(names[k % 3], bus, *scales[k % len(scales)]) for k, bus in enumerate(pq[:14])]
    cmap = CouplingMap(entries, data_dir)
    net = build_combined(tnet, cmap, docs, keep_bus_load=keep_bus_load)
    _assert_same(net, _combined_per_copy(tnet, cmap, docs, keep_bus_load))
    assert validate(net) == []


def test_build_combined_singular_block_names_branch(data_dir, tmp_path):
    doc = json.loads((data_dir / "feeder_small.json").read_text())
    doc["lines"][1]["z_ohms_per_mile"] = [[[0.0, 0.0]] * 3] * 3
    docs = {"bad.json": parse_feeder_doc(write_feeder(tmp_path, doc, "bad.json"))}
    tnet = parse_transmission(data_dir / "case9.m")
    cmap = CouplingMap([CouplingEntry("bad.json", 5), CouplingEntry("bad.json", 7)], tmp_path)
    with pytest.raises(CaseFormatError, match="feeder_small: singular impedance block on n2-n3"):
        build_combined(tnet, cmap, docs)


def _json_paths(value, path=()):
    """The path (keys and list indices) of every value inside JSON value ``value``, its own () first."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _json_paths(child, path + (key,))


JSON_VALUES = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
                           lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
                           max_leaves=8)
FEEDER_SMALL = json.loads((Path(__file__).resolve().parent.parent / "src" / "tandem" / "data" / "feeder_small.json")
                          .read_text())


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(list(_json_paths(FEEDER_SMALL))), JSON_VALUES)
@example(path=("lines", 0, "z_ohms_per_mile", 1), value=[])  # a ragged impedance block, which 300 draws miss
def test_any_one_feeder_value_replaced_fails_as_an_input_error(data_dir, tmp_path_factory, path, value):
    """feeder_small.json with any one value replaced by any JSON value, at case9's bus 5: parsing, coupling,
    validation and the index map either pass or raise CaseFormatError or NetworkError, never another error."""
    doc = _with(FEEDER_SMALL, path, value) if path else value
    feeder = write_feeder(tmp_path_factory.getbasetemp(), doc, "feeder_small.json")
    try:
        docs = {"feeder_small.json": parse_feeder_doc(feeder)}
        net = build_combined(parse_transmission(data_dir / "case9.m"),
                             CouplingMap([CouplingEntry("feeder_small.json", 5)], feeder.parent), docs)
        validate(net)
        build_index_map(net)
    except (CaseFormatError, NetworkError):
        pass


DATA = Path(__file__).resolve().parent.parent / "src" / "tandem" / "data"
CASE9_TOKENS = re.split(r"(\s+)", (DATA / "case9.m").read_text())  # tokens at even indices, space between
TOKENS = st.sampled_from(sorted(set(CASE9_TOKENS[::2]))) | st.sampled_from(
    ["", "nan", "inf", "-inf", "-1", "0", "0.5", "1e400", "[", "]", ";", "=", "%", "];", "mpc.bus", "mpc.gen",
     "mpc.branch", "mpc.baseMVA", "1;2", "1,", "'x'"]) | st.text(max_size=4)
FEEDER_SMALL_DOC = parse_feeder_doc(DATA / "feeder_small.json")
COUPLING = {"schema": 1, "couplings": [{"feeder": "feeder_small.json", "bus": 5, "load_scale": 1.2, "der_scale": 0.5},
                                       {"feeder": "feeder_small.json", "bus": 7}]}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, len(CASE9_TOKENS) // 2), TOKENS)
def test_any_one_case9_token_replaced_fails_as_an_input_error(tmp_path_factory, k, token):
    """case9.m with any one token replaced (by another of its tokens, a number, a bracket or any short text, the
    empty one deleting it), coupled to feeder_small at buses 5 and 7: parsing, coupling, validation and the
    index map either pass or raise CaseFormatError or NetworkError, never another error."""
    tokens = list(CASE9_TOKENS)
    tokens[2 * k] = token
    case = write_case(tmp_path_factory.getbasetemp(), "".join(tokens), "case9.m")
    cmap = CouplingMap([CouplingEntry("feeder_small.json", 5), CouplingEntry("feeder_small.json", 7)], DATA)
    try:
        net = build_combined(parse_transmission(case), cmap, {"feeder_small.json": FEEDER_SMALL_DOC})
        validate(net)
        build_index_map(net)
    except (CaseFormatError, NetworkError):
        pass


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(list(_json_paths(COUPLING))), JSON_VALUES)
def test_any_one_coupling_value_replaced_fails_as_an_input_error(tmp_path_factory, path, value):
    """A coupling map of feeder_small at case9's buses 5 and 7 with any one value replaced by any JSON value:
    parsing, the feeder documents it names, coupling, validation and the index map either pass or raise
    CaseFormatError or NetworkError, never another error."""
    doc = _with(COUPLING, path, value) if path else value
    coupling = write_feeder(tmp_path_factory.getbasetemp(), doc, "coupling.json")
    (coupling.parent / "feeder_small.json").write_text((DATA / "feeder_small.json").read_text())
    try:
        cmap = parse_coupling_map(coupling)
        docs = {e.feeder: parse_feeder_doc(cmap.feeder_path(e)) for e in cmap.entries}
        net = build_combined(parse_transmission(DATA / "case9.m"), cmap, docs)
        validate(net)
        build_index_map(net)
    except (CaseFormatError, NetworkError):
        pass
