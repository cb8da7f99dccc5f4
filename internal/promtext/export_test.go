package promtext

// FamsEqual exposes famsEqual to the external test package.
var FamsEqual = famsEqual
