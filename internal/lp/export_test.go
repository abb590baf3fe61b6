package lp

// Leverage returns the leverage function every solve on sess runs.
func (sess *Session) Leverage() LeverageFn { return sess.lev }
