"""Platform configurations (Tables 4.1, 4.2, 4.3 of the thesis).

One shared microarchitectural configuration for both simulated platforms
— the point of the thesis's methodology is that only the ISA and its
software stack differ — plus the per-ISA software specifics.
"""

from __future__ import annotations

from typing import Dict, List

from repro.sim.cpu.o3 import O3Config
from repro.sim.mem.hierarchy import MemoryHierarchyConfig
from repro.sim.ticks import Frequency


class PlatformConfig:
    """Everything needed to instantiate one simulated platform."""

    def __init__(
        self,
        isa: str,
        os_name: str,
        kernel_version: str = "5.15.59",
        docker_version: str = "25.0.0",
        compiler: str = "gcc",
        num_cores: int = 2,
        frequency_ghz: int = 1,
        mem_config: MemoryHierarchyConfig = None,
        o3_config: O3Config = None,
    ):
        self.isa = isa
        self.os_name = os_name
        self.kernel_version = kernel_version
        self.docker_version = docker_version
        self.compiler = compiler
        self.num_cores = num_cores
        self.frequency = Frequency.from_ghz(frequency_ghz)
        self.mem_config = mem_config or MemoryHierarchyConfig()
        self.o3_config = o3_config or O3Config()

    def fingerprint(self) -> tuple:
        """Hashable identity of the microarchitectural configuration
        (used to key checkpoint caches: a checkpoint only fits the
        geometry it was taken on)."""
        mem = tuple(sorted(self.mem_config.__dict__.items()))
        o3 = tuple(sorted(self.o3_config.__dict__.items()))
        return (self.num_cores, self.frequency.hertz, mem, o3)

    # Equal microarchitectures compare and hash equal, however many
    # times they were built, so specs that carry them do too.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlatformConfig):
            return NotImplemented
        return self.fingerprint() == other.fingerprint()

    def __hash__(self) -> int:
        return hash(self.fingerprint())

    def common_parameters(self) -> Dict[str, str]:
        """Table 4.1 rows."""
        mem = self.mem_config
        o3 = self.o3_config
        return {
            "L1 I Cache": "%d Cores x %dKB, %d-way set associative"
                          % (self.num_cores, mem.l1i_size // 1024, mem.l1i_assoc),
            "L1 D Cache": "%d Cores x %dKB, %d-way set associative"
                          % (self.num_cores, mem.l1d_size // 1024, mem.l1d_assoc),
            "L2 Cache": "%d Cores x %dKB, %d-way set associative"
                        % (self.num_cores, mem.l2_size // 1024, mem.l2_assoc),
            "RAM": "2GB, DDR3 1600, 800MHz, Single Channel",
            "ITLB Page walk caches": "%d Cores x 8KB" % self.num_cores,
            "DTLB Page walk caches": "%d Cores x 8KB" % self.num_cores,
            "ROB": "%d entries" % o3.rob_entries,
            "LSQs": "%d Load entries + %d Store entries" % (o3.lq_entries, o3.sq_entries),
            "Registers": "%d Int + %d Float" % (o3.int_regs, o3.float_regs),
            "Number Of Cores": str(self.num_cores),
            "Clock Frequency": "%dGHz" % (self.frequency.hertz // 10**9),
            "Linux Kernel": self.kernel_version,
            "Docker Version": self.docker_version,
        }

    def specific_parameters(self) -> Dict[str, str]:
        """Tables 4.2 / 4.3 rows."""
        return {"Os": self.os_name, "kernel compiled with gcc": self.compiler}

    def __repr__(self) -> str:
        return "PlatformConfig(%s)" % self.isa


#: Table 4.2: the RISC-V platform.
RISCV_PLATFORM = PlatformConfig(
    isa="riscv",
    os_name="Ubuntu Jammy 22.04.3 Preinstalled Server",
    compiler="riscv64-unknown-linux-gnu-gcc 13.2.0",
)

#: Table 4.3: the x86 platform.
X86_PLATFORM = PlatformConfig(
    isa="x86",
    os_name="Ubuntu Jammy 22.04.4 Live Server",
    compiler="gcc 11.4.0",
)

#: Arm platform: the third ISA vSwarm supports; extends the thesis's
#: comparison per its future-work direction.
ARM_PLATFORM = PlatformConfig(
    isa="arm",
    os_name="Ubuntu Jammy 22.04.4 Server (arm64)",
    compiler="aarch64-linux-gnu-gcc 11.4.0",
)

_PLATFORMS = {"riscv": RISCV_PLATFORM, "x86": X86_PLATFORM, "arm": ARM_PLATFORM}


def platform_for(isa: str) -> PlatformConfig:
    """The canonical platform configuration for an ISA."""
    try:
        return _PLATFORMS[isa]
    except KeyError:
        raise ValueError("no platform for ISA %r (have %s)" % (isa, sorted(_PLATFORMS)))


def common_config_rows() -> List[str]:
    """Pretty rows of Table 4.1 (identical across platforms by design)."""
    riscv_rows = RISCV_PLATFORM.common_parameters()
    x86_rows = X86_PLATFORM.common_parameters()
    if riscv_rows != x86_rows:
        raise AssertionError(
            "platform divergence: the thesis's fair-comparison premise "
            "requires identical common parameters"
        )
    return ["%s: %s" % (key, value) for key, value in riscv_rows.items()]
