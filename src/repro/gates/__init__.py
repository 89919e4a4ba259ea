"""Gate-level substrate: cells, netlists, simulators and generators."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "analysis": ("NetlistStats", "arrival_times", "critical_path",
                 "fanin_cone", "fanout_cone", "netlist_stats", "support"),
    "cells": ("AND", "BUF", "CELLS", "NAND", "NOR", "NOT", "OR", "XNOR",
              "XOR", "CellType", "cell"),
    "corpus": ("CorpusEntry", "corpus_entries", "corpus_entry",
               "corpus_names", "load_bench"),
    "generators": ("alu", "array_multiplier", "equality_comparator",
                   "full_adder", "half_adder", "ip1_block", "parity_tree",
                   "random_netlist", "ripple_carry_adder", "secded",
                   "sequential_wrap"),
    "io": ("C17_BENCH", "S27_BENCH", "SequentialBench", "c17", "read_bench",
           "read_sequential_bench", "s27", "write_bench",
           "write_sequential_bench"),
    "module": ("GateLevelModule", "LogicGateModule"),
    "netlist": ("Gate", "Netlist"),
    "scoap": ("INFINITY", "ScoapAnalysis", "ScoapNumbers"),
    "simulator": ("EventDrivenState", "NetlistSimulator"),
})
