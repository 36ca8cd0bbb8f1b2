// Package core implements the paper's primary contribution: the real-time
// context-aware safety monitoring pipeline for robot-assisted surgery.
//
// The pipeline has two supervised stages (Figure 4):
//
//  1. A surgical gesture classifier (GestureClassifier) infers the
//     operational context — the current gesture G1..G15 — from sliding
//     windows of kinematics data using a stacked-LSTM network.
//  2. A library of gesture-specific erroneous-gesture classifiers
//     (ErrorLibrary) validates the kinematics within the detected context,
//     classifying each sample as safe or unsafe (1D-CNN or LSTM binary
//     heads, one per gesture class).
//
// Monitor couples the two stages into an online detector that consumes one
// kinematics frame at a time and raises alerts (Monitor.Lookahead adds the
// §VI boundary-lookahead extension to both Run and Stream); Evaluate
// measures the accuracy (F1, AUC) and timeliness (jitter, reaction time,
// early-detection rate, computation time) of the whole pipeline,
// reproducing Tables IV-IX of the paper.
package core
