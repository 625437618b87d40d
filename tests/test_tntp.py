import pytest

from privroute.tntp import (
    DEFAULT_DEMAND_SCALE,
    MetadataMismatch,
    OdDemand,
    ParseError,
    load_sioux_falls,
    parse_net,
    parse_trips,
)

SINGLE_LINK = """<NUMBER OF NODES> 2
<NUMBER OF LINKS> 1
<END OF METADATA>
~ header comment
1 2 1000 1 2 0.15 4 0 0 1 ;
"""


def test_parse_net_field_positions_raw_units():
    # Undo the unit conversion to check each column lands in its own field.
    net = parse_net(SINGLE_LINK)
    assert net.n_nodes == 2 and net.n_edges == 1
    e = net.edges[0]
    assert (e.tail, e.head) == (1, 2)
    assert e.delay.capacity * 3600.0 == pytest.approx(1000.0)
    assert e.delay.t0 / 60.0 == 2.0
    assert e.delay.alpha == 0.15 and e.delay.beta == 4.0


def test_parse_net_unit_conversion():
    net = parse_net(SINGLE_LINK)
    e = net.edges[0]
    assert e.delay.t0 == 120.0  # minutes -> seconds
    assert e.delay.capacity == 1000.0 / 3600.0  # per hour -> per second


def test_parse_net_empty_links():
    net = parse_net("<NUMBER OF NODES> 3\n<NUMBER OF LINKS> 0\n<END OF METADATA>\n")
    assert net.n_nodes == 3 and net.n_edges == 0


def test_parse_net_metadata_mismatch():
    bad = SINGLE_LINK.replace("<NUMBER OF LINKS> 1", "<NUMBER OF LINKS> 2")
    with pytest.raises(MetadataMismatch):
        parse_net(bad)
    bad2 = SINGLE_LINK.replace("<NUMBER OF NODES> 2", "<NUMBER OF NODES> 1")
    with pytest.raises(MetadataMismatch):
        parse_net(bad2)


def test_parse_net_reports_line_numbers():
    bad = SINGLE_LINK + "1 2 oops 1 2 0.15 4 0 0 1 ;\n"
    with pytest.raises(ParseError) as err:
        parse_net(bad)
    assert err.value.line == 6


def test_parse_net_rejects_non_integer_header_count():
    with pytest.raises(ParseError, match="bad metadata count"):
        parse_net(SINGLE_LINK.replace("<NUMBER OF NODES> 2", "<NUMBER OF NODES> two"))


@pytest.mark.parametrize("record", [
    "1 2 1000 1 0 0.15 4 0 0 1 ;",  # zero free-flow time
    "1 2 0 1 2 0.15 4 0 0 1 ;",  # zero capacity
    "1 2 1000 1 2 -0.15 4 0 0 1 ;",  # negative alpha
    "1 2 1000 1 2 0.15 0.5 0 0 1 ;",  # power below 1
    "1 2 1000 1 inf 0.15 4 0 0 1 ;",  # infinite free-flow time
    "1 2 1000 one 2 0.15 4 0 0 1 ;",  # length is not a number
])
def test_parse_net_rejects_bad_delay_record_with_line(record):
    with pytest.raises(ParseError) as err:
        parse_net(SINGLE_LINK.replace("1 2 1000 1 2 0.15 4 0 0 1 ;", record))
    assert err.value.line == 5


@pytest.mark.parametrize("record, message", [
    ("1 1 1000 1 2 0.15 4 0 0 1 ;", "self-loop"),
    ("0 2 1000 1 2 0.15 4 0 0 1 ;", "unknown node"),
])
def test_parse_net_network_errors_are_parse_errors(record, message):
    with pytest.raises(ParseError, match=message):
        parse_net(SINGLE_LINK.replace("1 2 1000 1 2 0.15 4 0 0 1 ;", record))


def test_parse_net_tolerates_extra_columns_and_blank_lines():
    text = SINGLE_LINK + "\n\n2 1 500 1 3 0.2 4 0 0 1 99 extra ;\n"
    text = text.replace("<NUMBER OF LINKS> 1", "<NUMBER OF LINKS> 2")
    net = parse_net(text)
    assert net.n_edges == 2
    assert net.edges[1].delay.t0 == 180.0
    assert net.edges[1].delay.capacity == 500.0 / 3600.0


def test_parse_trips_basic():
    od = parse_trips("Origin 1\n 2 : 0.0;\n 3 : 12.5;\n")
    assert od.rates[(1, 2)] == 0.0  # zero entries are kept
    assert od.rates[(1, 3)] == 12.5
    assert len(od.nonzero_items()) == 1


def test_parse_trips_errors():
    with pytest.raises(ParseError):
        parse_trips(" 2 : 5.0;")  # entry before any Origin
    with pytest.raises(ParseError) as err:
        parse_trips("Origin 1\n 2 = 5.0;\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_trips("Origin 1\n 2 : -4.0;\n")
    for rate in ("inf", "nan"):
        with pytest.raises(ParseError, match="finite"):
            parse_trips(f"Origin 1\n 2 : {rate};\n")


def test_parse_trips_rejects_repeated_pair():
    # a repeat under a second header for the same origin counts too
    text = "Origin 1\n 2 : 5.0;  3 : 1.0;\nOrigin 2\n 1 : 4.0;\nOrigin 1\n 2 : 7.0;\n"
    with pytest.raises(ParseError, match="repeated demand entry") as err:
        parse_trips(text)
    assert err.value.line == 6
    with pytest.raises(ParseError) as err:
        parse_trips("Origin 1\n 2 : 5.0; 2 : 5.0;\n")
    assert err.value.line == 2
    # the same destination under different origins is no repeat
    assert parse_trips("Origin 1\n 3 : 1.0;\nOrigin 2\n 3 : 2.0;\n").rates == {
        (1, 3): 1.0, (2, 3): 2.0,
    }


def test_sioux_falls_shape():
    net, od = load_sioux_falls()
    assert net.n_nodes == 24
    assert net.n_edges == 76
    assert len(od.nonzero_items()) == 528
    # hourly calibration: one sixth of the steady-state table
    assert od.total() * DEFAULT_DEMAND_SCALE == pytest.approx(60_100.0)


def test_sioux_falls_od_nodes_exist():
    net, od = load_sioux_falls()
    nodes = set(net.nodes)
    for (o, d), rate in od.rates.items():
        assert o in nodes and d in nodes


def test_sioux_falls_edge_units():
    net, _ = load_sioux_falls()
    t0s = sorted({round(e.delay.t0) for e in net.edges})
    assert min(t0s) == 120.0  # two minutes
    assert max(t0s) == 600.0  # ten minutes
    caps = [e.delay.capacity for e in net.edges]
    assert min(caps) > 1.0  # vehicles per second
    assert max(caps) < 10.0
