"""Task inference for malware from sandbox behavior attributes.

Activation-based instance and rule classifiers, from-scratch baselines, a
synthetic corpus generator with controllable mutation, a sandbox report
ingester, and an evaluation harness, behind the `taskinfer` CLI.
"""
