// Package drx simulates the Data Restructuring Accelerator
// microarchitecture.
//
// The machine follows Sec. IV-B of the paper: a decoupled access-execute
// pipeline with a programmable front-end (hardware loops in an
// Instruction Repeater, a Strided Scratchpad Address Calculator), a
// configurable number of vector Restructuring Engine (RE) lanes, a
// Transposition Engine, and an Off-chip Data Access Engine over a single
// DDR4-3200 channel. Programs (internal/isa) execute *functionally* —
// real bytes move between DRAM and the scratchpad and real arithmetic
// runs on the lanes — while the machine accounts cycles per unit, so the
// same run yields both a verifiable output buffer and a latency estimate.
//
// The accounting never depends on the data, so a program can also be
// timed without moving any: Machine.Time walks it through the same
// interpreter as Machine.Run, with the same checks, and skips only the
// element transfers. It returns the Result Run would.
package drx
