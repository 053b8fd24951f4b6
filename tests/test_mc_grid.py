"""The fused Monte Carlo engine against the per-estimator results.

The golden values are the repr of every field of each estimator as
computed by the earlier per-estimator chunk loops (one generation and
one reduction per estimator call).  The fused engine keeps the chunk
boundaries and reduces every row by itself, so it must reproduce them
bit for bit, whatever the tile height and whatever else is estimated
from the same draws.  The inputs cross chunk boundaries (n = 3000 gives
699-row chunks, 349 pairs for the lower identity) and tile boundaries.

The small-ball log_threshold fields and the negative-moment reference
columns of the stdout golden come from the |g| quantile, not from the
draws.  They were re-pinned when the quantile moved to scipy, each one
closer to a 40-digit mpmath value than before; the stdout hash also
covers the echoed constants, three fewer since schema version 2 and
one fewer (lower_validity_C) since schema version 3.
"""

import dataclasses
import hashlib
import math

import pytest

import lplab.gaussian
from lplab import (
    mc_grid_stats,
    mc_lower_identity,
    mc_negative_moment,
    mc_norm_stats,
    mc_small_ball,
    mc_truncated_stats,
)
from lplab.cli import main
from lplab.errors import DomainError

GOLDEN = [
    (
        lambda: mc_norm_stats(30, 1.0, 1500, 7, 3),
        ('24.068728510740538', '10.748240918523269', '0.08464924066807794', '0.38974983699902366', '1500', '7', '3'),
    ),
    (
        lambda: mc_norm_stats(30, 3.5, 1500, 7, 3),
        ('3.22001520159083', '0.18685136462003268', '0.011160984562902824', '0.006729458773839909', '1500', '7', '3'),
    ),
    (
        lambda: mc_norm_stats(30, math.inf, 1500, 7, 3),
        ('2.3164788850233387', '0.19668253465835867', '0.011450837950658418', '0.007677324695409697', '1500', '7', '3'),
    ),
    (
        lambda: mc_norm_stats(3000, 12.0, 1600, 5, 2),
        ('4.157298770890831', '0.0382185303810103', '0.004887390048699964', '0.002417692381813061', '1600', '5', '2'),
    ),
    (
        lambda: mc_truncated_stats(3000, 8.0, 2.5, 1600, 5, 2),
        (
            ('4.421898894876364', '0.001952411883326192', '0.0011046526273353402', '6.936310862920808e-05', '1600', '5', '2'),
            ('0.20357247068462297', '0.01662209634320727', '0.003223167729812481', '0.002461580423873465', '1600', '5', '2'),
        ),
    ),
    (
        lambda: mc_truncated_stats(40, math.inf, 1.2, 900, 3, 4),
        (
            ('1.1999999999999997', '4.93586495202246e-32', '7.405602197752771e-18', '0.0', '900', '3', '4'),
            ('1.7087963560224304', '1.5168938803946435', '0.04105408195152995', '0.11902808147083263', '900', '3', '4'),
        ),
    ),
    (
        lambda: mc_truncated_stats(40, 3.0, math.inf, 900, 3, 4),
        (
            ('3.9440233769268502', '0.20208671245385684', '0.014984685235779779', '0.010102580188661912', '900', '3', '4'),
            ('0.0', '0.0', '0.0', '0.0', '900', '3', '4'),
        ),
    ),
    (
        lambda: mc_negative_moment(3000, 6.9, 1.0, 2.5, 1600, 5, 2),
        ('1.6351599819669228e-05', '1.4082597263192692e-12', '2.9667529876104332e-08', '5.230072899770224e-14', '1600', '5', '2'),
    ),
    (
        lambda: mc_negative_moment(20, 2.0, 1.0, math.inf, 1000, 4, 3),
        ('0.05627388796936266', '0.0003659776967152881', '0.0006049609051131222', '2.7552388402782274e-05', '1000', '4', '3'),
    ),
    (
        lambda: mc_lower_identity(3000, 4.0, 1000, 6, 2),
        ('0.004809453732140825', '0.0006823032424792345', '0.0008260164904402542', '0.0002601027466483794', '1000', '6', '2'),
    ),
    (
        lambda: mc_lower_identity(10, 7.0, 999, 1, 3),
        ('0.02805220268623797', '0.012587206710232505', '0.0035496206158897115', '0.003485841294353836', '999', '1', '3'),
    ),
    (
        lambda: mc_small_ball(3000, 2.0, 0.4, math.inf, 1600, 5, 2),
        ('0.0', '0.0', '0.0023951611922532253', '0', '1600', '7.087350040239698', '5', '2'),
    ),
    (
        lambda: mc_small_ball(4, 2.0, 0.45, math.inf, 3000, 2, 3),
        ('0.06266666666666666', '0.054540801402863825', '0.07191109828222125', '188', '3000', '-0.16735764789162488', '2', '3'),
    ),
    (
        lambda: mc_small_ball(4, 3.0, 0.45, 1.0, 3000, 2, 3),
        ('0.10933333333333334', '0.09866229125278743', '0.12100358255126727', '328', '3000', '-0.17714478148085866', '2', '3'),
    ),
    (
        lambda: mc_small_ball(50, 3.0, 0.3, 1.5, 2000, 8, 3),
        ('0.0', '0.0', '0.001917047281252934', '0', '2000', '2.998018987782384', '8', '3'),
    ),
]

# stdout of `lplab mc --n 100 --p 2,7,inf --truncate 2 --negative 2,1
# --samples 2000 --seed 9`: every row kind, computed the same way
MC_ARGV = [
    "mc", "--n", "100", "--p", "2,7,inf", "--truncate", "2",
    "--negative", "2,1", "--samples", "2000", "--seed", "9",
]
MC_STDOUT_SHA256 = "8a81451427895401c1b834237e8edd73556005ad340b75ef4927e9c0248971e1"


def fields(estimate):
    return tuple(repr(getattr(estimate, f.name)) for f in dataclasses.fields(estimate))


def reprs(result):
    if isinstance(result, tuple):
        return tuple(fields(estimate) for estimate in result)
    return fields(result)


@pytest.mark.parametrize("call, expected", GOLDEN)
def test_golden_fields(call, expected):
    assert reprs(call()) == expected


@pytest.mark.parametrize("tile_elems", [1, 7 * 3000, 1 << 30])
def test_golden_fields_any_tile(monkeypatch, tile_elems):
    # one row per tile, a few rows, and the whole block in one tile
    monkeypatch.setattr(lplab.gaussian, "_TILE_ELEMS", tile_elems)
    for call, expected in GOLDEN:
        assert reprs(call()) == expected


def test_mc_stdout_golden(capsys):
    assert main(MC_ARGV) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == MC_STDOUT_SHA256


class TestGrid:
    @pytest.mark.parametrize(
        "n, p_values, samples, streams",
        [(300, [1.0, 2.0, 7.5, math.inf], 1200, 3), (2500, [2.0, math.inf], 1000, 1)],
    )
    @pytest.mark.parametrize("T", [1.8, math.inf, None])
    def test_rows_equal_single_estimators(self, n, p_values, samples, streams, T):
        q, L = 3.0, 0.5
        stats = mc_grid_stats(n, p_values, samples, 4, streams, T=T, negative=(q, L))
        assert len(stats.norms) == len(p_values)
        for p, norm in zip(p_values, stats.norms):
            assert norm == mc_norm_stats(n, p, samples, 4, streams)
        if T is None:
            assert stats.truncated == ()
        else:
            for p, pair in zip(p_values, stats.truncated, strict=True):
                assert pair == mc_truncated_stats(n, p, T, samples, 4, streams)
        cap = math.inf if T is None else T
        assert stats.negative == mc_negative_moment(n, q, L, cap, samples, 4, streams)

    def test_without_negative(self):
        stats = mc_grid_stats(20, [2.0], 500, 1)
        assert stats.negative is None
        assert stats.norms == (mc_norm_stats(20, 2.0, 500, 1),)

    def test_validation(self):
        with pytest.raises(DomainError):
            mc_grid_stats(20, [], 500, 1)
        with pytest.raises(DomainError):
            mc_grid_stats(20, [2.0, 0.5], 500, 1)
        with pytest.raises(DomainError):
            mc_grid_stats(20, [2.0, -math.inf], 500, 1)
        with pytest.raises(DomainError):
            mc_grid_stats(20, [2.0], 500, 1, T=0.0)
        with pytest.raises(DomainError):
            mc_grid_stats(20, [2.0], 500, 1, negative=(0.5, 1.0))


def test_streams_beyond_samples_refused():
    # every stream must draw at least one sample; an empty one would
    # still cost a generator and an accumulator
    with pytest.raises(DomainError, match="streams <= samples"):
        mc_norm_stats(5, 2.0, 3, seed=0, streams=4)
    with pytest.raises(DomainError, match="streams <= samples"):
        mc_small_ball(5, 2.0, 0.3, math.inf, 10, seed=0, streams=11)
    with pytest.raises(DomainError, match="streams <= samples"):
        mc_lower_identity(5, 2.0, 10, seed=0, streams=11)
