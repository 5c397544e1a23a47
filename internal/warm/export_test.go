package warm

// SupportMethods exposes the clause-guard support set to the external tests.
var SupportMethods = supportMethods
