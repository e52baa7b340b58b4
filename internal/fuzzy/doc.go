// Package fuzzy implements the fuzzy-logic machinery underlying the
// AutoGlobe controller: membership functions, linguistic variables and
// terms, a textual rule language with a recursive-descent parser, max–min
// inference with fuzzy union by maximum, and defuzzification.
//
// The implementation follows Section 3 of the AutoGlobe paper (ICDE 2006),
// which in turn follows Klir & Yuan, "Fuzzy Sets and Fuzzy Logic":
//
//   - membership grades are real numbers in [0, 1],
//   - conjunctions in rule antecedents are evaluated with min,
//     disjunctions with max,
//   - inference clips the consequent fuzzy set at the antecedent's degree
//     of truth (max–min inference),
//   - all clipped sets assigned to the same output variable are combined
//     with the fuzzy union (pointwise max),
//   - the combined set is defuzzified with the leftmost-maximum method
//     (the paper's choice); mean-of-maximum and centroid are provided as
//     alternatives for ablation studies.
//
// The last three steps are exact and small, and for the paper's choice
// the compiled program (compile.go) takes them in closed form: the
// leftmost maximum of a union of clipped sets follows from the fired
// truths and each consequent's pre-sampled prefix maxima by comparisons
// alone, bit-equal to sampling the union, so no output set is built.
// Every other configuration samples the union over the 201-point output
// grid.
//
// A rule base is a list of rules in the form
//
//	IF cpuLoad IS high AND (performanceIndex IS low OR performanceIndex IS medium)
//	THEN scaleUp IS applicable
//
// Rules are parsed by Parse into an AST (Expr), compiled once per rule
// base, and evaluated by an Engine against crisp measurements, producing
// crisp output values (action applicabilities and host scores in
// AutoGlobe).
package fuzzy
