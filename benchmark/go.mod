module sintra/benchmark

go 1.22

require sintra v0.0.0

replace sintra => ../
