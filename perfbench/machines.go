package main

import (
	"fmt"
	"strings"

	"moment/internal/topology"
)

// customSpec is the build-to-order server of examples/customserver: two
// sockets, a two-deep PCIe-switch cascade, 3 GPUs and 6 SSDs, an NVLink
// bridge. Its 370 candidates after symmetry reduction sit above machine
// B's 144 and machine A's 23, so the search share varies across machines.
const customSpec = `
machine custom
qpi 20GiB/s
dram 256GiB 36GiB/s
gpus 3 mem=40GiB cachefrac=0.15
ssds 6 cap=3.84TiB bw=6GiB/s iops=930000
pcie x16=20GiB/s x4=7GiB/s
nodes 1 nic=0GiB/s
point rc0 root bays=4 gpuslots=1
point rc1 root bays=4 gpuslots=1
point sw0 switch parent=rc0 uplink=20GiB/s bays=2 gpuslots=2
point sw1 switch parent=sw0 uplink=20GiB/s bays=2 gpuslots=2
nvlink 0 1 bw=50GiB/s
`

// machineByName builds one of the benchmark's machines: "A", "B" or
// "custom". Each call returns a fresh machine.
func machineByName(name string) (*topology.Machine, error) {
	switch name {
	case "A":
		return topology.MachineA(), nil
	case "B":
		return topology.MachineB(), nil
	case "custom":
		return topology.ParseSpec(strings.NewReader(customSpec))
	}
	return nil, fmt.Errorf("unknown machine %q", name)
}
