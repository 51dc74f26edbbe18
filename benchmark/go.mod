module mantle/benchmark

go 1.22

require mantle v0.0.0

replace mantle => ../
