"""System-level Monte Carlo simulator for NR V2X sidelink broadcast on a highway."""
