module pario/bench

go 1.22

require pario v0.0.0

replace pario => ../
