"""CLI entry point, the critical-path analyzer, and the emulator."""

import pytest

from repro.__main__ import build_parser, main
from repro.emu.emulator import ArchEmulator
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.isa.trace import Trace
from repro.sim.critical_path import analyze_critical_path


class TestCLI:
    def test_workloads_command(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "spec06_mcf" in out and "ISPEC06" in out

    def test_storage_command(self, capsys):
        assert main(["storage"]) == 0
        out = capsys.readouterr().out
        assert "Prefetch Table" in out and "KB" in out

    def test_params_command(self, capsys):
        assert main(["params"]) == 0
        out = capsys.readouterr().out
        assert "L1D" in out
        assert main(["params", "--core-2x"]) == 0
        assert "baseline-2x" in capsys.readouterr().out

    def test_run_command(self, capsys):
        assert main(["run", "spec06_bzip2", "--length", "1500",
                     "--warmup", "200", "--rfp"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out and "RFP useful" in out

    def test_run_rejects_profile_flags(self):
        """Profiling is ``python -m cProfile -m repro run ...``, not a flag."""
        for flag in ("--profile", "--profile-limit=5", "--profile-out=x"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["run", "spec06_bzip2", flag])

    def test_run_with_vp(self, capsys):
        assert main(["run", "spec06_bzip2", "--length", "1200",
                     "--warmup", "100", "--vp", "eves"]) == 0
        assert "IPC" in capsys.readouterr().out

    def test_parser_rejects_unknown_vp(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "w", "--vp", "bogus"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


LATENCY = {"L1": 5, "L2": 14, "LLC": 40, "DRAM": 200}


class TestCriticalPath:
    def test_empty_trace(self):
        report = analyze_critical_path(Trace([]), LATENCY)
        assert report["length"] == 0 and report["path"] == []

    def test_serial_chain_sums_costs(self):
        instrs = [Instruction(0x10, Op.MOV, dst=1, imm=1)]
        instrs += [Instruction(0x14, Op.ADD, dst=1, srcs=(1,), imm=1)
                   for _ in range(9)]
        report = analyze_critical_path(Trace(instrs), LATENCY)
        assert report["length"] == 10
        assert len(report["path"]) == 10

    def test_parallel_chains_pick_longest(self):
        instrs = []
        for _ in range(3):
            instrs.append(Instruction(0x10, Op.ADD, dst=1, srcs=(1,)))
        for _ in range(7):
            instrs.append(Instruction(0x20, Op.ADD, dst=2, srcs=(2,)))
        report = analyze_critical_path(Trace(instrs), LATENCY)
        assert report["length"] == 7

    def test_load_costs_by_level(self):
        instrs = [
            Instruction(0x10, Op.LOAD, dst=1, addr=0x100),
            Instruction(0x14, Op.LOAD, dst=1, srcs=(1,), addr=0x200),
        ]
        report = analyze_critical_path(
            Trace(instrs), LATENCY, load_levels={0: "L1", 1: "DRAM"})
        assert report["length"] == 5 + 200
        assert report["by_level"] == {"L1": 5, "DRAM": 200}

    def test_loads_default_to_l1(self):
        instrs = [Instruction(0x10, Op.LOAD, dst=1, addr=0x100)]
        report = analyze_critical_path(Trace(instrs), LATENCY)
        assert report["length"] == 5

    def test_path_indices_are_dataflow_ordered(self):
        instrs = [
            Instruction(0x10, Op.MOV, dst=1, imm=1),
            Instruction(0x14, Op.ADD, dst=2, srcs=(1,)),
            Instruction(0x18, Op.ADD, dst=3, srcs=(2,)),
        ]
        report = analyze_critical_path(Trace(instrs), LATENCY)
        assert report["path"] == [0, 1, 2]


class TestEmulator:
    def test_load_store_roundtrip(self):
        instrs = [
            Instruction(0x10, Op.MOV, dst=1, imm=55),
            Instruction(0x14, Op.STORE, srcs=(1,), addr=0x100),
            Instruction(0x18, Op.LOAD, dst=2, addr=0x100),
        ]
        emu = ArchEmulator(Trace(instrs)).run()
        assert emu.registers.read(2) == 55
        assert emu.memory[0x100] == 55
        assert emu.load_values == [55]

    def test_initial_image_respected(self):
        instrs = [Instruction(0x10, Op.LOAD, dst=1, addr=0x200)]
        emu = ArchEmulator(Trace(instrs, memory_image={0x200: 9})).run()
        assert emu.registers.read(1) == 9

    def test_limit(self):
        instrs = [Instruction(0x10, Op.ADD, dst=1, srcs=(1,), imm=1)
                  for _ in range(5)]
        emu = ArchEmulator(Trace(instrs)).run(limit=3)
        assert emu.registers.read(1) == 3

    def test_branch_writes_condition(self):
        instrs = [
            Instruction(0x10, Op.MOV, dst=1, imm=3),
            Instruction(0x14, Op.BRANCH, dst=2, srcs=(1,)),
        ]
        emu = ArchEmulator(Trace(instrs)).run()
        assert emu.registers.read(2) == 1

    def test_misaligned_addresses_share_words(self):
        instrs = [
            Instruction(0x10, Op.MOV, dst=1, imm=7),
            Instruction(0x14, Op.STORE, srcs=(1,), addr=0x104),
            Instruction(0x18, Op.LOAD, dst=2, addr=0x100),
        ]
        emu = ArchEmulator(Trace(instrs)).run()
        assert emu.registers.read(2) == 7  # same 8-byte word
