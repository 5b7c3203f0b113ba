"""The experiment layer: cell campaigns (:mod:`repro.analysis.campaign`),
store dataframes, the campaign report, and the figure reproductions."""
