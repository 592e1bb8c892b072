"""Registry of the benchmark's workloads."""

import wl_cli
import wl_multiplicative
import wl_sieve
import wl_sumset

ALL = {
    wl_sieve.NAME: wl_sieve.Workload,
    wl_multiplicative.NAME: wl_multiplicative.Workload,
    wl_sumset.NAME: wl_sumset.Workload,
    wl_cli.NAME: wl_cli.Workload,
}
