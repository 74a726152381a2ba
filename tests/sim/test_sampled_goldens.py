"""Sampled O3 timing pinned to literal values.

Each case is one sampled O3 run on a fresh system, pinned by its
``RunResult`` and a digest of its full stat dump, so any change to the
sampled loop's timing shows here.

The geometries cover fast-forward (``fast`` and ``balanced`` at
``min_insts=0``), zero slack (``accurate``), no jitter, no warm-up,
back-to-back detail windows, windows small enough to split every
unrolled segment, and one derived per program whose last detail window
ends exactly where the program does.
"""

import pytest

from repro.sim.isa import predecode
from repro.sim.sampling import SamplingConfig
from repro.sim.system import SimulatedSystem
from tests.sim.test_predecode import (
    build_program,
    edge_runs,
    stat_digest,
    straightline,
    unrolled_shapes,
)

ISAS = ("riscv", "x86", "arm")

PROGRAMS = {
    "stride": lambda: build_program(seed=9, trips=120),
    "random": lambda: build_program(seed=5, trips=120,
                                    random_pattern=True),
    "unrolled": lambda: unrolled_shapes(seed=11),
    "straight": lambda: straightline(seed=13, instrs=5000),
    "edges": lambda: edge_runs(seed=5),
}

GEOMETRIES = {
    "fast": SamplingConfig(512, 256, 128, True, 0),
    "balanced": SamplingConfig(1024, 640, 128, True, 0),
    "accurate": SamplingConfig(2048, 1984, 64, True, 0),
    "no-jitter": SamplingConfig(1024, 256, 128, False, 0),
    "no-warmup": SamplingConfig(768, 256, 0, True, 0),
    "back-to-back": SamplingConfig(200, 200, 0, False, 0),
    "split": SamplingConfig(48, 13, 5, True, 0),
}


def ends_on_window(length):
    """Windows at ``[0, d)`` and ``[length - d, length)``: the second
    detail window closes on the program's last instruction."""
    detail = length // 3
    return SamplingConfig(length - detail, detail, 0, False, 0)


def sampled_run(program_name, isa, geometry):
    """One sampled O3 run on a fresh system: its counters and digest."""
    program = PROGRAMS[program_name]()
    system = SimulatedSystem("s", isa)
    if geometry == "ends-on-window":
        sampling = ends_on_window(
            predecode.program_length(system.assemble(program)))
    else:
        sampling = GEOMETRIES[geometry]
    run = system.run(1, program, model="o3", seed=7, sampling=sampling)
    return (run.cycles, run.instructions, run.loads, run.stores,
            run.branches, stat_digest(system.dump_stats()))


#: (program, isa, geometry) -> (cycles, instructions, loads, stores,
#: branches, stat-dump digest), captured before the sampled detail
#: windows moved onto the full-detail pipeline method.
GOLDENS = {
    ('stride', 'riscv', 'fast'):
        (4426, 2754, 560, 264, 152, 'b9d43830411291a8'),
    ('stride', 'riscv', 'balanced'):
        (3961, 2754, 560, 264, 152, '684422e13e4c0578'),
    ('stride', 'riscv', 'accurate'):
        (3098, 2754, 560, 264, 152, '6efc27bf8057466a'),
    ('stride', 'riscv', 'no-jitter'):
        (6677, 2754, 560, 264, 152, 'c8de0930be478d88'),
    ('stride', 'riscv', 'no-warmup'):
        (7002, 2754, 560, 264, 152, 'c2cf9b9b2f252701'),
    ('stride', 'riscv', 'back-to-back'):
        (3044, 2754, 560, 264, 152, '131656462c3eb04e'),
    ('stride', 'riscv', 'split'):
        (4646, 2754, 560, 264, 152, '2feda53bf4d4babc'),
    ('stride', 'riscv', 'ends-on-window'):
        (3993, 2754, 560, 264, 152, '42834c552fa7c197'),
    ('stride', 'x86', 'fast'):
        (5584, 2763, 624, 284, 180, '4c210341d1f51ba3'),
    ('stride', 'x86', 'balanced'):
        (7543, 2763, 624, 284, 180, '55769080aa889a5b'),
    ('stride', 'x86', 'accurate'):
        (5656, 2763, 624, 284, 180, '234da6a5d754ded1'),
    ('stride', 'x86', 'no-jitter'):
        (8584, 2763, 624, 284, 180, 'bf0bed9c953aaa2c'),
    ('stride', 'x86', 'no-warmup'):
        (9365, 2763, 624, 284, 180, '495a237aa3a0260e'),
    ('stride', 'x86', 'back-to-back'):
        (5635, 2763, 624, 284, 180, 'dd6ae76efac3713f'),
    ('stride', 'x86', 'split'):
        (7202, 2763, 624, 284, 180, '8cba7530fafda2bc'),
    ('stride', 'x86', 'ends-on-window'):
        (7635, 2763, 624, 284, 180, '9bc8f9071bf57dfc'),
    ('stride', 'arm', 'fast'):
        (5131, 2696, 576, 268, 160, 'b1a336e8c39d5303'),
    ('stride', 'arm', 'balanced'):
        (5286, 2696, 576, 268, 160, '33d9f8270d665de2'),
    ('stride', 'arm', 'accurate'):
        (4016, 2696, 576, 268, 160, 'a9eb1e648f6a5e2e'),
    ('stride', 'arm', 'no-jitter'):
        (7835, 2696, 576, 268, 160, 'e88ce5750c266d5b'),
    ('stride', 'arm', 'no-warmup'):
        (7881, 2696, 576, 268, 160, 'ab8ce04ced0f5f7c'),
    ('stride', 'arm', 'back-to-back'):
        (3905, 2696, 576, 268, 160, '7207a72d321bce73'),
    ('stride', 'arm', 'split'):
        (5892, 2696, 576, 268, 160, '538eaedf30cde343'),
    ('stride', 'arm', 'ends-on-window'):
        (5294, 2696, 576, 268, 160, '1b7d04c131173633'),
    ('random', 'riscv', 'fast'):
        (7993, 2754, 560, 264, 152, '86eac0f8a9553716'),
    ('random', 'riscv', 'balanced'):
        (8217, 2754, 560, 264, 152, 'f8450bb8c1cacec7'),
    ('random', 'riscv', 'accurate'):
        (6872, 2754, 560, 264, 152, '89b04c0879af697b'),
    ('random', 'riscv', 'no-jitter'):
        (12095, 2754, 560, 264, 152, 'a8f4f4e9f74c93d3'),
    ('random', 'riscv', 'no-warmup'):
        (12924, 2754, 560, 264, 152, '67fcb12503758744'),
    ('random', 'riscv', 'back-to-back'):
        (6657, 2754, 560, 264, 152, '575ed7c138ee8244'),
    ('random', 'riscv', 'split'):
        (13826, 2754, 560, 264, 152, '56d988b345106aa7'),
    ('random', 'riscv', 'ends-on-window'):
        (8883, 2754, 560, 264, 152, '458c448ef9c0ead2'),
    ('random', 'x86', 'fast'):
        (10605, 2763, 624, 284, 180, 'ce43d3f46aa1d420'),
    ('random', 'x86', 'balanced'):
        (11007, 2763, 624, 284, 180, '6990a9da619978a3'),
    ('random', 'x86', 'accurate'):
        (9146, 2763, 624, 284, 180, '4b3dc311481be699'),
    ('random', 'x86', 'no-jitter'):
        (12908, 2763, 624, 284, 180, '7658053548588403'),
    ('random', 'x86', 'no-warmup'):
        (13629, 2763, 624, 284, 180, '205d2f24aa5da564'),
    ('random', 'x86', 'back-to-back'):
        (9126, 2763, 624, 284, 180, 'e43e2c292141f534'),
    ('random', 'x86', 'split'):
        (13808, 2763, 624, 284, 180, 'ac8c3a09264d811f'),
    ('random', 'x86', 'ends-on-window'):
        (11487, 2763, 624, 284, 180, '4d61ca7c5636e61c'),
    ('random', 'arm', 'fast'):
        (9573, 2696, 576, 268, 160, 'dafbf78bb579c34a'),
    ('random', 'arm', 'balanced'):
        (9350, 2696, 576, 268, 160, '9574a32dc5f928b0'),
    ('random', 'arm', 'accurate'):
        (7784, 2696, 576, 268, 160, '0b4c6b99fb2e9cad'),
    ('random', 'arm', 'no-jitter'):
        (14108, 2696, 576, 268, 160, '69b032ef1c844346'),
    ('random', 'arm', 'no-warmup'):
        (14698, 2696, 576, 268, 160, 'd3806c66a3815cb1'),
    ('random', 'arm', 'back-to-back'):
        (7526, 2696, 576, 268, 160, '0240add7dc572dcd'),
    ('random', 'arm', 'split'):
        (16198, 2696, 576, 268, 160, '46e465b3e6356261'),
    ('random', 'arm', 'ends-on-window'):
        (9847, 2696, 576, 268, 160, 'a97c121a2493af2e'),
    ('unrolled', 'riscv', 'fast'):
        (12809, 3031, 840, 490, 706, '2f0a6457d11d7a9a'),
    ('unrolled', 'riscv', 'balanced'):
        (12708, 3031, 840, 490, 706, '0f157a2429ffba83'),
    ('unrolled', 'riscv', 'accurate'):
        (11078, 3031, 840, 490, 706, '926bd7ab25a7e79e'),
    ('unrolled', 'riscv', 'no-jitter'):
        (20609, 3031, 840, 490, 706, '6ddb219ae599efdc'),
    ('unrolled', 'riscv', 'no-warmup'):
        (17600, 3031, 840, 490, 706, 'ac7a4fdc7b2e0c6c'),
    ('unrolled', 'riscv', 'back-to-back'):
        (11253, 3031, 840, 490, 706, '7a02a82b792fc752'),
    ('unrolled', 'riscv', 'split'):
        (19392, 3031, 840, 490, 706, '8f4de246c3adbf3e'),
    ('unrolled', 'riscv', 'ends-on-window'):
        (14427, 3031, 840, 490, 706, 'db90cc73c61589b6'),
    ('unrolled', 'x86', 'fast'):
        (26100, 5901, 1512, 882, 1714, '1c81e5ee121d594b'),
    ('unrolled', 'x86', 'balanced'):
        (27932, 5901, 1512, 882, 1714, '7e5709d4966c54fc'),
    ('unrolled', 'x86', 'accurate'):
        (23489, 5901, 1512, 882, 1714, 'f2c2215278215fe9'),
    ('unrolled', 'x86', 'no-jitter'):
        (41856, 5901, 1512, 882, 1714, 'f550262328fac8c1'),
    ('unrolled', 'x86', 'no-warmup'):
        (35919, 5901, 1512, 882, 1714, '47c7c147ad780fc5'),
    ('unrolled', 'x86', 'back-to-back'):
        (24328, 5901, 1512, 882, 1714, '28dbc1e08f577c5c'),
    ('unrolled', 'x86', 'split'):
        (41547, 5901, 1512, 882, 1714, '502e28175c4fc8f1'),
    ('unrolled', 'x86', 'ends-on-window'):
        (31425, 5901, 1512, 882, 1714, 'b369cb35d433f4fb'),
    ('unrolled', 'arm', 'fast'):
        (13590, 3717, 1008, 588, 930, '3a7ea0d4c1b16055'),
    ('unrolled', 'arm', 'balanced'):
        (19739, 3717, 1008, 588, 930, '91728abfae4f5854'),
    ('unrolled', 'arm', 'accurate'):
        (14644, 3717, 1008, 588, 930, 'fb2d7e090962dee2'),
    ('unrolled', 'arm', 'no-jitter'):
        (16102, 3717, 1008, 588, 930, '18d0efc791b42590'),
    ('unrolled', 'arm', 'no-warmup'):
        (24584, 3717, 1008, 588, 930, 'e927dd2c5f7656e9'),
    ('unrolled', 'arm', 'back-to-back'):
        (15363, 3717, 1008, 588, 930, '7406c3cdca8231a3'),
    ('unrolled', 'arm', 'split'):
        (23229, 3717, 1008, 588, 930, 'd7157f7f2d36529e'),
    ('unrolled', 'arm', 'ends-on-window'):
        (19966, 3717, 1008, 588, 930, '73cf4704fd5862da'),
    ('straight', 'riscv', 'fast'):
        (27348, 5001, 1250, 400, 250, '7f5c5abcc352bfe6'),
    ('straight', 'riscv', 'balanced'):
        (27726, 5001, 1250, 400, 250, '21b5d2ac2c8296b4'),
    ('straight', 'riscv', 'accurate'):
        (26303, 5001, 1250, 400, 250, '9f321762d91f43b0'),
    ('straight', 'riscv', 'no-jitter'):
        (25829, 5001, 1250, 400, 250, 'd54e681917f619a1'),
    ('straight', 'riscv', 'no-warmup'):
        (25838, 5001, 1250, 400, 250, '4614b500489aeb6c'),
    ('straight', 'riscv', 'back-to-back'):
        (26451, 5001, 1250, 400, 250, 'a37c9c7868e99295'),
    ('straight', 'riscv', 'split'):
        (39860, 5001, 1250, 400, 250, '46e6349a1c3a22e5'),
    ('straight', 'riscv', 'ends-on-window'):
        (28752, 5001, 1250, 400, 250, 'b46208515e119dae'),
    ('straight', 'x86', 'fast'):
        (58025, 9159, 2250, 720, 608, 'c915d0d404b48108'),
    ('straight', 'x86', 'balanced'):
        (59462, 9159, 2250, 720, 608, '8dd6328a591108dd'),
    ('straight', 'x86', 'accurate'):
        (57085, 9159, 2250, 720, 608, '44bf3046df1eb2d1'),
    ('straight', 'x86', 'no-jitter'):
        (52970, 9159, 2250, 720, 608, '92916e1802acd6f8'),
    ('straight', 'x86', 'no-warmup'):
        (60145, 9159, 2250, 720, 608, 'f0022d1ef512b45c'),
    ('straight', 'x86', 'back-to-back'):
        (57013, 9159, 2250, 720, 608, '29ee43ce84ad6a52'),
    ('straight', 'x86', 'split'):
        (66489, 9159, 2250, 720, 608, '9f732e2e2896b026'),
    ('straight', 'x86', 'ends-on-window'):
        (60722, 9159, 2250, 720, 608, '74ae4a72a38694d9'),
    ('straight', 'arm', 'fast'):
        (37735, 6031, 1500, 480, 330, '71280ab7d5a208fe'),
    ('straight', 'arm', 'balanced'):
        (36891, 6031, 1500, 480, 330, '0cd1259979c72365'),
    ('straight', 'arm', 'accurate'):
        (36350, 6031, 1500, 480, 330, '37f88b73e8ca0d07'),
    ('straight', 'arm', 'no-jitter'):
        (34439, 6031, 1500, 480, 330, '36284588a649cf74'),
    ('straight', 'arm', 'no-warmup'):
        (41214, 6031, 1500, 480, 330, '8dba5773d35efa94'),
    ('straight', 'arm', 'back-to-back'):
        (36547, 6031, 1500, 480, 330, '584edbba9cacf781'),
    ('straight', 'arm', 'split'):
        (44030, 6031, 1500, 480, 330, '398b9af21548f785'),
    ('straight', 'arm', 'ends-on-window'):
        (38583, 6031, 1500, 480, 330, '30735caf11fd2565'),
    ('edges', 'riscv', 'fast'):
        (1490, 109, 21, 6, 31, '7e0cbea2222d2d7e'),
    ('edges', 'riscv', 'balanced'):
        (1490, 109, 21, 6, 31, '7e0cbea2222d2d7e'),
    ('edges', 'riscv', 'accurate'):
        (1490, 109, 21, 6, 31, '7e0cbea2222d2d7e'),
    ('edges', 'riscv', 'no-jitter'):
        (1490, 109, 21, 6, 31, '7e0cbea2222d2d7e'),
    ('edges', 'riscv', 'no-warmup'):
        (1490, 109, 21, 6, 31, '7e0cbea2222d2d7e'),
    ('edges', 'riscv', 'back-to-back'):
        (1490, 109, 21, 6, 31, '7e0cbea2222d2d7e'),
    ('edges', 'riscv', 'split'):
        (2234, 109, 21, 6, 31, 'ab01050cfda127ac'),
    ('edges', 'riscv', 'ends-on-window'):
        (1541, 109, 21, 6, 31, '447ed71b2418590f'),
    ('edges', 'x86', 'fast'):
        (1762, 113, 19, 6, 41, '463102beb0322e28'),
    ('edges', 'x86', 'balanced'):
        (1762, 113, 19, 6, 41, '463102beb0322e28'),
    ('edges', 'x86', 'accurate'):
        (1762, 113, 19, 6, 41, '463102beb0322e28'),
    ('edges', 'x86', 'no-jitter'):
        (1762, 113, 19, 6, 41, '463102beb0322e28'),
    ('edges', 'x86', 'no-warmup'):
        (1762, 113, 19, 6, 41, '463102beb0322e28'),
    ('edges', 'x86', 'back-to-back'):
        (1762, 113, 19, 6, 41, '463102beb0322e28'),
    ('edges', 'x86', 'split'):
        (1825, 113, 19, 6, 41, 'ea3fbd11932e570c'),
    ('edges', 'x86', 'ends-on-window'):
        (1710, 113, 19, 6, 41, 'f445e84dce4e0180'),
    ('edges', 'arm', 'fast'):
        (1640, 109, 20, 6, 34, '27974f3e6f5425f9'),
    ('edges', 'arm', 'balanced'):
        (1640, 109, 20, 6, 34, '27974f3e6f5425f9'),
    ('edges', 'arm', 'accurate'):
        (1640, 109, 20, 6, 34, '27974f3e6f5425f9'),
    ('edges', 'arm', 'no-jitter'):
        (1640, 109, 20, 6, 34, '27974f3e6f5425f9'),
    ('edges', 'arm', 'no-warmup'):
        (1640, 109, 20, 6, 34, '27974f3e6f5425f9'),
    ('edges', 'arm', 'back-to-back'):
        (1640, 109, 20, 6, 34, '27974f3e6f5425f9'),
    ('edges', 'arm', 'split'):
        (2830, 109, 20, 6, 34, 'b251c0d3c53d44f8'),
    ('edges', 'arm', 'ends-on-window'):
        (1694, 109, 20, 6, 34, '680c75e18cbab9a0'),
}


@pytest.mark.parametrize("geometry", list(GEOMETRIES) + ["ends-on-window"])
@pytest.mark.parametrize("isa", ISAS)
@pytest.mark.parametrize("program_name", list(PROGRAMS))
def test_sampled_run_matches_golden(program_name, isa, geometry):
    assert sampled_run(program_name, isa, geometry) == \
        GOLDENS[program_name, isa, geometry]
